(** Monte-Carlo fault-injection campaigns over a benchmark kernel.

    One {e point} is a (benchmark, model, frequency) triple evaluated with
    independent simulations (different RNG streams split from one seed).
    The four application-level metrics of Fig. 5/6 are aggregated:
    probability to finish, probability of a fully correct result, fault
    injection rate in FIs per 1000 kernel cycles, and the benchmark's
    output-error metric averaged over the runs that finished.

    How a point spends its trial budget is described by a
    {!Sfi_util.Spec.t} (re-exported here as {!Spec}): either a fixed
    trial count — bit-identical to the historic engine — or an adaptive
    policy that runs trials in deterministic batches and stops as soon
    as the point's 95% Wilson intervals and standard errors reach the
    requested precision, escalating up to [max_trials] otherwise.

    When the injector proves that no fault can occur at the operating
    point (the grayed-out "n/a" regions of the paper's figures), a single
    fault-free run stands in for all trials.

    Points and sweeps execute on a {!Sfi_util.Pool} of [jobs] domains
    (default: [Pool.default_jobs ()], i.e. the CLI's [--jobs] or all
    cores). Results are bit-identical for every job count: the
    per-trial RNG streams are split from the root seed in a fixed order
    before dispatch, batches dispatch in index order, the
    adaptive stopping rule is a pure function of the in-order results so
    far, and aggregation folds the trials in that same order.

    With [Spec.with_checkpoint path] every completed batch is appended
    to a CRC-validated JSONL log ({!Checkpoint}); a killed campaign
    rerun with the same spec reloads the finished batches instead of
    recomputing them and produces a bit-identical point — the stopping
    decisions replay on the loaded data. Records are keyed by a content
    fingerprint of the benchmark image, the fault model, the frequency,
    the seed and the batch size, so one file can safely serve many
    sweeps; stale or foreign records are simply never matched. *)

open Sfi_kernels

module Spec = Sfi_util.Spec

type trial = {
  finished : bool;
  correct : bool;
  fault_bits : int;
  fault_events : int;
  kernel_cycles : int;
  error : float;  (** output metric; [nan] when the run did not finish *)
}

type point = {
  freq_mhz : float;
  trials : int;            (** trials actually executed (or resumed) *)
  trials_requested : int;  (** the spec's per-point ceiling *)
  finished_rate : float;
  correct_rate : float;
  ci_low : float;   (** 95% Wilson lower bound on [correct_rate] *)
  ci_high : float;  (** 95% Wilson upper bound on [correct_rate] *)
  fi_per_kcycle : float;   (** mean bit flips per 1000 kernel cycles *)
  mean_error : float;      (** mean metric over finished runs; [nan] if none *)
  any_fault_possible : bool;
}

val reference_cycles : Bench.t -> int
(** The benchmark's fault-free cycle count, used for watchdog budgets.
    Memoized per benchmark name for the process lifetime; when the
    persistent cache is enabled ({!Sfi_cache.set_dir}), the count is
    additionally stored on disk in the ["refcycles"] namespace, keyed
    by the program image, memory geometry and pipeline penalty
    constants (not the name — identical images share an entry). *)

val run_trial :
  bench:Bench.t -> model:Model.t -> freq_mhz:float -> seed:int -> trial
(** One simulation with its own RNG stream; watchdog set to 3x the
    fault-free cycle count (+64k slack). *)

val run : Spec.t -> bench:Bench.t -> model:Model.t -> freq_mhz:float -> point
(** Evaluates one point under the spec's trial policy, seed, job count
    and (optional) checkpoint. [Fixed n] runs [n] trials in one batch,
    bit-identical to the single-batch engine that preceded {!Spec}. Raises [Invalid_argument] on an
    invalid spec. *)

val run_detailed :
  Spec.t -> bench:Bench.t -> model:Model.t -> freq_mhz:float -> point * trial array
(** {!run}, plus the individual trials behind the aggregate, in the
    deterministic trial order (so any per-trial classification derived
    from them — e.g. the attack experiment's success/SDC/detected
    split — inherits the point's bit-identical-across-jobs-and-resumes
    contract). The array holds the single representative run when the
    point is proven fault-free. *)

val run_sweep :
  Spec.t -> bench:Bench.t -> model:Model.t -> freqs_mhz:float list -> point list
(** Frequency points pipeline through the same [jobs]-domain pool their
    trial batches fan out on; all points share the spec (and its
    checkpoint file — records are keyed per frequency). *)

val point_of_first_failure : point list -> float option
(** Lowest swept frequency at which the correct-rate drops below 100%
    (the PoFF of the paper: where the application first does not finish
    with a fully correct result). *)

(** Versioned JSON codec for points and sweeps — the one serialization
    used by the CLI, the golden tests and the bench harness. Floats are
    written with {!Sfi_obs.Json}'s round-tripping writer; [nan] fields
    (e.g. [mean_error] when nothing finished) encode as [null]. *)
module Point_json : sig
  val schema : string
  (** ["sfi-point/1"]. *)

  val of_point : point -> Sfi_obs.Json.t

  val to_point : Sfi_obs.Json.t -> point
  (** Raises [Invalid_argument] on missing or mistyped fields. *)

  val of_sweep : ?meta:(string * Sfi_obs.Json.t) list -> point list -> Sfi_obs.Json.t
  (** [{"schema": "sfi-point/1", <meta...>, "points": [...]}]. *)

  val to_sweep : Sfi_obs.Json.t -> point list
  (** Raises [Invalid_argument] on a missing or unsupported schema. *)

  val to_string : Sfi_obs.Json.t -> string
end
