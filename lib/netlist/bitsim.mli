(** Bit-parallel (word-level) functional evaluation.

    Packs {!lanes} independent trials into one native [int] per net —
    bit [l] of a net's word is that net's Boolean value in lane [l] —
    and evaluates every gate for all lanes with single word operations,
    walking the compiled [(level, kind)] schedule that
    {!Circuit.freeze} builds. The packed timing engine
    ([Sfi_timing.Dta_packed]) keeps its net state in exactly this
    representation, so the two share the pack/unpack and levelized
    evaluation defined here. *)

open Sfi_util

val lanes : int
(** Trials per word: [Sys.int_size], i.e. 63 on 64-bit native targets. *)

val full_mask : int
(** All {!lanes} bits set. *)

val lane_mask : active:int -> int
(** The low [active] bits set ([active] in [0, lanes]]). *)

val make_words : Circuit.t -> int array
(** A fresh per-net word array: everything 0 except the constant-true
    net, which is all-ones. *)

val eval_levels : Circuit.t -> int array -> unit
(** Full functional pass: propagates [words] through every gate via the
    compiled levelized schedule (one kind dispatch per segment,
    straight-line loops over flat int arrays). Equivalent to
    {!Circuit.eval_all_gates} applied to each lane. *)

val pack : int array -> Circuit.net array -> U32.t array -> unit
(** [pack words nets vals] stores [vals.(l)]'s bit [i] as lane [l] of
    [words.(nets.(i))] — the bit-plane transpose of up to {!lanes}
    operand values onto a net vector ([nets.(0)] is the LSB). Lanes
    beyond [Array.length vals] are cleared. *)

val read_lane : int array -> Circuit.net array -> lane:int -> U32.t
(** [read_lane words nets ~lane] reassembles lane [lane] of the net
    vector into an integer, bit [i] from [words.(nets.(i))] — the
    inverse of {!pack} for one lane. *)

val popcount : int -> int
(** Set bits in a word (all 63 bits counted). *)

val ctz : int -> int
(** Trailing zeros of a nonzero word (the lowest set lane index).
    Raises [Invalid_argument] on 0. *)
