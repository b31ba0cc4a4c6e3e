(** Zero-delay functional simulation of a frozen circuit.

    Used to validate the generated datapaths against their arithmetic
    specification and as the reference for the delay-annotated
    simulators ([Sfi_timing.Dta_packed] and the scalar test oracle). *)

type t

val create : Circuit.t -> t

val set_input : t -> Circuit.net -> bool -> unit
(** Sets a primary input value. Raises [Invalid_argument] if the net is
    not a primary input or constant net. *)

val set_input_vec : t -> Circuit.net array -> int -> unit
(** [set_input_vec t nets word] drives [nets.(i)] with bit [i] of [word]. *)

val eval : t -> unit
(** Propagates all values in topological order. *)

val value : t -> Circuit.net -> bool
(** Value of a net after {!eval}. *)

val read_vec : t -> Circuit.net array -> int
(** Packs net values into an integer, index 0 = LSB. *)

val eval_fn : Circuit.t -> (string * bool) list -> (string * bool) list
(** One-shot convenience: evaluate named inputs to named outputs. Inputs
    not mentioned default to [false]. *)
