(** Per-key once-cells: a process-lifetime memo shared across domains.

    The table lock is held only to find or allocate a key's cell; the
    value is computed under that cell's own lock. First uses of
    {e distinct} keys therefore compute in parallel, while concurrent
    callers for the {e same} key block until the first one has filled
    the cell. A computation that raises leaves the cell empty. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val get : ?on_hit:(unit -> unit) -> ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t k f] is the value memoized under [k], computed by [f ()] on
    first use. [on_hit] runs (under the cell's lock) whenever the value
    was already there. *)
