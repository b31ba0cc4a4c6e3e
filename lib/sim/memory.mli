(** Unified instruction/data memory (single-cycle SRAM model).

    Big-endian, as OR1K. The address decoder ignores bits above the SRAM
    width, so out-of-range accesses {e wrap} instead of faulting — on the
    real core a fault-corrupted pointer reads or clobbers some location
    and execution continues, which is what gives the paper its gradual
    finish/correct transition regions. Misaligned word or halfword
    accesses raise {!Trap} (the OR1K alignment exception). *)

open Sfi_util

exception Trap of string

type t

val create : size:int -> t
(** [size] in bytes, zero-initialized, must be a positive power of two. *)

val size : t -> int

val copy : t -> t
(** Snapshot; used to reset state between Monte-Carlo trials. *)

val load_program : t -> Sfi_isa.Program.t -> unit
(** Writes all initialized words of the image. Raises {!Trap} if the image
    does not fit. *)

val read_u32 : t -> int -> U32.t
val read_u16 : t -> int -> int
val read_u8 : t -> int -> int

val write_u32 : t -> int -> U32.t -> unit
val write_u16 : t -> int -> int -> unit
val write_u8 : t -> int -> int -> unit

val sub_string : t -> pos:int -> len:int -> string
(** Raw byte extraction (page granularity, for sparse snapshots). *)

val blit_from_string : t -> pos:int -> string -> unit
(** Overwrites [String.length s] bytes at [pos] (page restore). *)

val equal_range : t -> t -> pos:int -> len:int -> bool
(** Byte equality of one range of two same-sized memories (dirty-page
    detection against a shadow copy). *)

val read_u32_array : t -> addr:int -> count:int -> U32.t array
(** Bulk read of consecutive words (for collecting benchmark outputs). *)
