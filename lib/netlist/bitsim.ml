(* Bit-parallel (word-level) functional evaluation.

   One machine word per net holds [lanes] independent trials: bit [l] of
   [words.(net)] is net [net]'s Boolean value in lane [l]. Every gate
   then evaluates all lanes at once with one or two word operations
   (MUX decomposes into AND/OR masking at evaluation time), so a full
   functional pass costs [gate_count] word ops instead of
   [lanes * gate_count] Boolean ops.

   OCaml's native [int] has [Sys.int_size] usable bits (63 on 64-bit
   targets) and its bitwise operations are exact on all of them — words
   with bit 62 set are negative, which is fine, since no arithmetic is
   ever done on a word. [Int64] would be wider but boxes per operation
   on a non-flambda toolchain, so 63 lanes per sweep is the sweet spot.

   [eval_levels] walks the compiled (level, kind) schedule built by
   [Circuit.freeze]: one kind dispatch per segment, then a tight
   straight-line loop over flat int arrays, instead of re-interpreting
   the kind code gate by gate. *)

open Sfi_util

let lanes = Sys.int_size

(* All [lanes] bits set. [lnot 0] rather than [-1] to make the "bit
   mask, not number" reading explicit. *)
let full_mask = lnot 0

let lane_mask ~active =
  if active < 0 || active > lanes then invalid_arg "Bitsim.lane_mask";
  if active = lanes then full_mask else (1 lsl active) - 1

let make_words (c : Circuit.t) =
  let words = Array.make c.Circuit.n_nets 0 in
  (match c.Circuit.const_true with
  | Some n -> words.(n) <- full_mask
  | None -> ());
  words

(* Full functional pass over the compiled schedule. Each arm hoists the
   segment's kind out of the loop; the loop bodies index only flat int
   arrays, so ocamlopt keeps the base pointers in registers. *)
let eval_levels (c : Circuit.t) words =
  let sched = c.Circuit.sched_gate in
  let seg_off = c.Circuit.seg_off in
  let seg_kind = c.Circuit.seg_kind in
  let fo = c.Circuit.fanin_off in
  let ins = c.Circuit.fanin_net in
  let out = c.Circuit.gate_out in
  let in1 gi = Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi)) in
  let in2 gi =
    Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi + 1))
  in
  let in3 gi =
    Array.unsafe_get words (Array.unsafe_get ins (Array.unsafe_get fo gi + 2))
  in
  for s = 0 to Array.length seg_kind - 1 do
    let lo = Array.unsafe_get seg_off s in
    let hi = Array.unsafe_get seg_off (s + 1) - 1 in
    match Array.unsafe_get seg_kind s with
    | 0 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi))
      done
    | 1 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi)
      done
    | 2 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi land in2 gi))
      done
    | 3 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi lor in2 gi))
      done
    | 4 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi land in2 gi)
      done
    | 5 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi lor in2 gi)
      done
    | 6 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (in1 gi lxor in2 gi)
      done
    | 7 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi) (lnot (in1 gi lxor in2 gi))
      done
    | 8 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        let sel = in1 gi in
        Array.unsafe_set words (Array.unsafe_get out gi)
          ((sel land in3 gi) lor (lnot sel land in2 gi))
      done
    | 9 ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi)
          (lnot ((in1 gi land in2 gi) lor in3 gi))
      done
    | _ ->
      for j = lo to hi do
        let gi = Array.unsafe_get sched j in
        Array.unsafe_set words (Array.unsafe_get out gi)
          (lnot ((in1 gi lor in2 gi) land in3 gi))
      done
  done

(* ---------- lane packing ---------- *)

let pack words (nets : Circuit.net array) (vals : U32.t array) =
  let nv = Array.length vals in
  if nv > lanes then invalid_arg "Bitsim.pack: more values than lanes";
  for i = 0 to Array.length nets - 1 do
    let w = ref 0 in
    for l = 0 to nv - 1 do
      w := !w lor (((vals.(l) lsr i) land 1) lsl l)
    done;
    words.(nets.(i)) <- !w
  done

let read_lane words (nets : Circuit.net array) ~lane =
  if lane < 0 || lane >= lanes then invalid_arg "Bitsim.read_lane";
  let acc = ref 0 in
  for i = 0 to Array.length nets - 1 do
    acc := !acc lor (((words.(nets.(i)) lsr lane) land 1) lsl i)
  done;
  !acc

(* ---------- word bit utilities (used by the packed event engine) ---------- *)

(* 32-bit SWAR halves: every literal stays well inside the 63-bit int, and
   a 63-bit word splits exactly into a 31-bit and a 32-bit part. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* The usual [lsr 24] alone relies on the multiply wrapping at 32 bits;
     OCaml ints are wider, so mask the byte the count lands in. *)
  ((x * 0x01010101) lsr 24) land 0xFF

let popcount w = popcount32 (w land 0x7FFFFFFF) + popcount32 ((w lsr 31) land 0xFFFFFFFF)

(* Count of trailing zeros of a nonzero word, by halving; allocation-free
   (no Int64, no float conversions) for the per-event settle loops. *)
let ctz w =
  if w = 0 then invalid_arg "Bitsim.ctz: zero";
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    w := !w lsr 32
  end;
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then incr n;
  !n
