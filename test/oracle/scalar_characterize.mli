(** The scalar characterization kernel: the reference that
    {!Sfi_timing.Characterize.run}'s packed kernel reproduces byte for
    byte.

    Each trial is one event-driven {!Dta} cycle, chained from the
    previous trial's settled state. Classes run in [Op_class.all] order,
    each on its own DTA instance and on an RNG split from the root seed
    in that order, exactly as the production run splits them. Runs
    serially and never touches the persistent cache. *)

open Sfi_netlist
open Sfi_timing

val run :
  ?cycles:int ->
  ?seed:int ->
  ?setup_ps:float ->
  ?vdd_model:Vdd_model.t ->
  ?lib:Cell_lib.t ->
  ?profile_for:(Sfi_util.Op_class.t -> Characterize.operand_profile) ->
  vdd:float ->
  Alu.t ->
  Characterize.t
(** Same arguments and defaults as {!Sfi_timing.Characterize.run}
    (less the job count). A DTA result that disagrees with
    [Op_class.apply] raises [Failure]. *)
