(** Persistent, content-addressed cache for the expensive pure phases.

    DTA characterization — Monte-Carlo gate-level simulation per
    instruction class per voltage point — is a pure function of
    (sized netlist, cell library, Vdd model, voltage, trial count, RNG
    seed, operand profiles). So is a benchmark's fault-free reference
    cycle count. This store memoizes those results on disk across
    process invocations:

    - {b content-addressed}: the entry key is a 64-bit FNV-1a
      fingerprint of every input the result depends on, plus a schema
      label. Any change to the netlist, sizing, voltage grid, trial
      count or seed produces a different key — stale entries are never
      returned, they are simply never looked up again.
    - {b atomic}: entries are written to a temp file in the cache
      directory and [rename]d into place, so concurrent writers (or a
      crash mid-write) can never publish a half-written entry.
    - {b validated}: each entry carries a magic/version header, its
      namespace and key, and a CRC-32 trailer (the same reflected
      CRC-32 the [crc32] benchmark kernel computes, applied host-side).
      A truncated, corrupted or version-mismatched entry is discarded
      and recomputed, never trusted — corruption is observable via the
      [cache.corrupt_rejected] counter.

    Caching is {b off by default}: it activates only when a directory
    is configured through {!set_dir} (the CLI's [--cache-dir]) or the
    [SFI_CACHE_DIR] environment variable, so the tier-1 determinism
    tests run the real computation unless a test opts in.

    The obs counters ([cache.hits], [cache.misses], [cache.stores],
    [cache.corrupt_rejected], [cache.evictions]) are registered
    [~det:false]: they depend on what happens to be on disk, not on the
    requested work, and are therefore excluded from
    {!Sfi_obs.det_signature} — a warm and a cold run of the same work
    keep identical deterministic signatures. *)

val schema_version : int
(** Bump when the entry encoding or any cached value's layout changes;
    entries written by other versions are rejected on load. *)

val set_dir : string option -> unit
(** [set_dir (Some d)] enables caching in directory [d] (created on
    first store), overriding the environment. [set_dir None] removes
    the override, restoring the [SFI_CACHE_DIR] fallback. *)

val dir : unit -> string option
(** The active cache directory: the {!set_dir} override if any, else a
    non-empty [SFI_CACHE_DIR], else [None] (caching disabled). *)

val enabled : unit -> bool

val crc32 : string -> int
(** Reflected CRC-32 (polynomial [0xEDB88320], init/xorout
    [0xFFFFFFFF]) — bit-identical to the host reference of the [crc32]
    benchmark kernel ([Sfi_kernels.Crc32.reference]); pinned against it
    by the test suite. *)

(** Accumulates a canonical byte stream of the inputs a cached result
    depends on and hashes it with 64-bit FNV-1a. Strings and arrays are
    length-prefixed, floats are hashed by their IEEE-754 bits, so
    distinct input sequences cannot collide by concatenation. *)
module Fingerprint : sig
  type t

  val create : string -> t
  (** [create label] seeds the fingerprint with a schema label (e.g.
      ["sfi-chardb/1"]); bumping the label invalidates all old keys. *)

  val add_int : t -> int -> unit
  val add_float : t -> float -> unit
  val add_string : t -> string -> unit
  val add_int_array : t -> int array -> unit
  val add_float_array : t -> float array -> unit

  val hex : t -> string
  (** The current 64-bit digest as 16 lowercase hex digits. *)
end

val store : namespace:string -> key:string -> 'a -> unit
(** Marshals the value into [<dir>/<namespace>-<key>.sfic] atomically.
    A no-op when caching is disabled; I/O errors (read-only directory,
    disk full) are swallowed — the cache is an accelerator, never a
    correctness dependency. *)

val load : namespace:string -> key:string -> 'a option
(** Loads and validates an entry. Returns [None] (counted as a miss)
    when caching is disabled, the entry is absent, or it fails
    validation (also counted as [cache.corrupt_rejected]; the bad file
    is removed best-effort). The ['a] is trusted from the namespace +
    fingerprint + schema version — callers must give each value type
    its own namespace and re-check cheap invariants after load. *)

val memo :
  namespace:string -> key:(unit -> string) -> ?valid:('a -> bool) -> (unit -> 'a) -> 'a
(** [memo ~namespace ~key ~valid f] is [f ()] read through the cache:
    {!load} on a hit whose value passes [valid] (default: every value);
    otherwise [f ()], {!store}d only if it passes [valid] — so the cache
    never holds a value its reader would reject. With caching disabled
    it is just [f ()], and [key] is never called. *)

type entry_info = {
  file : string;       (** basename within the cache directory *)
  namespace : string;  (** parsed from the entry, [""] if unreadable *)
  key : string;
  bytes : int;         (** file size *)
  mtime : float;
  valid : bool;
  reason : string;     (** why invalid; [""] when valid *)
}

val scan : dir:string -> entry_info list
(** Validates every [*.sfic] file in [dir] (non-recursive), sorted by
    file name. A missing directory scans as empty. *)

val prune : ?max_age_days:float -> ?all:bool -> dir:string -> unit -> int
(** Removes invalid entries, entries older than [max_age_days] (if
    given), every entry when [all], and any leftover temp files.
    Returns the number of entries removed (counted as
    [cache.evictions]). *)
