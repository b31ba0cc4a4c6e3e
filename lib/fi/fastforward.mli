(** Snapshot fast-forward for campaign trials (DESIGN.md §13).

    A trial is bit-identical to the fault-free reference run until its
    first injected fault: the fault-model hooks depend only on the
    instruction class and the trial's private RNG stream. Recording the
    reference run's hook-call schedule plus sparse architectural
    snapshots therefore lets a campaign

    - resolve provably fault-free trials analytically (no simulation),
    - and start every faulty trial from the snapshot nearest before its
      first fault, simulating only the suffix —

    while consuming exactly the RNG draws a full run would, so results,
    det signatures and checkpoint records are bit-identical to full
    replay. Traces persist in {!Sfi_cache} (namespace ["snap"], codec
    ["sfi-snap/1"]) keyed by benchmark content + stride, independent of
    the CPU engine. *)

open Sfi_util
open Sfi_kernels

type trace

val page_size : int
(** Granularity of the per-snapshot memory deltas, in bytes. *)

val stride_for : ref_cycles:int -> int
(** Snapshot stride for a program of [ref_cycles] fault-free cycles:
    [max 64 (ref_cycles / 128)].
    Finer strides shrink the replayed snapshot-to-fault window; coarser
    ones shrink the trace. *)

val trace_for : bench:Bench.t -> stride:int -> trace option
(** The benchmark's snapshot trace, recorded on first use (one
    interpreter pass over the reference run) and memoized both
    in-process and in {!Sfi_cache}. [None] when the reference run does
    not exit cleanly — callers fall back to full replay. *)

val trace_for_model : bench:Bench.t -> model:Model.t -> stride:int -> trace option
(** {!trace_for}, gated on the model's fast-forward contract: a
    {!Model.cycle_dependent} model (every attack family) gets [None] —
    bumping the det:false [fastforward.model_unsupported] counter — so
    the campaign falls back to full replay instead of an unsound probe.
    Never silently diverges: the probe's schedule replay assumes masks
    ignore cycle numbers, operand values and pre-run state. *)

type run = Sfi_sim.Cpu.stats * U32.t array * Injector.t option
(** A trial's raw outcome, before [Campaign] assembles its result: the
    run's stats, its output words ([[||]] unless it exited) and the real
    injector that drove it — [None] for an elided trial, which injected
    nothing. *)

val simulate :
  bench:Bench.t ->
  budget:int ->
  ?resume:Sfi_sim.Cpu.snapshot ->
  Injector.t ->
  Sfi_sim.Memory.t ->
  run
(** One simulation of [bench] in [mem] under the injector's hook and
    the absolute cycle watchdog [budget], from the reset state or from
    [resume]: the run a full-replay trial and a fast-forwarded suffix
    both perform. *)

val first_fault :
  model:Model.t ->
  freq_mhz:float ->
  trace:trace ->
  rng:Rng.t ->
  (int * Op_class.t) option
(** The probe {!run_trial} starts with, on its own, for statistical
    validation: the cycle and instruction class of the trial's first
    injected fault, or [None] for a provably fault-free trial. Walks a
    copy of [rng]; the caller's stream is untouched. By the
    draw-accounting contract this equals the first fault a full-replay
    run of the same stream would inject. *)

val run_trial :
  bench:Bench.t ->
  model:Model.t ->
  freq_mhz:float ->
  budget:int ->
  trace:trace ->
  rng:Rng.t ->
  run
(** One fast-forwarded trial on the trial's pre-split [rng] stream:
    the reference run itself when the probe finds no fault, else the
    suffix from the snapshot before the first fault. [budget] is the
    same absolute cycle watchdog a full-replay trial would use; resumed
    suffixes inherit the snapshot's cycle counter, so the watchdog trips
    at the identical absolute cycle. *)
