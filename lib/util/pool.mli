(** Fixed-size domain pool for data-parallel fan-out.

    OCaml 5 [Domain]s with a mutex/condition work queue — no external
    dependencies. A pool of [jobs] executors consists of [jobs - 1]
    spawned domains plus the submitting caller, which helps drain the
    queue while waiting; nested submissions (a pool task that itself
    calls {!map} on the same pool) are therefore deadlock-free.
    [jobs = 1] degenerates to strict left-to-right serial execution.

    Determinism contract: {!map} and {!parallel_init} return results in
    input order regardless of the execution interleaving, so any
    computation whose per-item inputs are fixed before submission (e.g.
    pre-split RNG streams) produces bit-identical results for every job
    count. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs] must be
    positive. *)

val jobs : t -> int

val shutdown : t -> unit
(** Finishes all queued work, terminates and joins the workers. The pool
    must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards (also on exception). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], results in input order. If any application
    raises, the whole batch still runs to completion and the exception of
    the lowest failing index is re-raised in the caller. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], results in input order. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init]. *)

(** {1 Default job count and the shared global pool} *)

val default_jobs : unit -> int
(** Job count used when no explicit [~jobs] is given: the
    {!set_default_jobs} override if set, else
    [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Process-wide override of {!default_jobs} (e.g. from a [--jobs] CLI
    flag). Must be positive. *)

val global : unit -> t
(** The shared lazily-created pool of {!default_jobs} executors. It is
    rebuilt if the default changed since creation and shut down at
    process exit. *)

val using : ?jobs:int -> (t -> 'a) -> 'a
(** [using ?jobs f]: runs [f] with the global pool when [jobs] is absent
    or matches its size, else with a fresh temporary pool of [jobs]
    executors. *)
