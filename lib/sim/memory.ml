exception Trap of string

type t = Bytes.t

let trap fmt = Printf.ksprintf (fun m -> raise (Trap m)) fmt

let create ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Memory.create: size must be a positive power of two";
  Bytes.make size '\000'

let size t = Bytes.length t

let copy t = Bytes.copy t

(* The SRAM address decoder ignores address bits above the macro's width:
   accesses wrap, they do not fault. This matters under fault injection,
   where corrupted pointers routinely carry flipped high bits — on the
   real core such an access reads or clobbers *some* location and the
   program often limps on, which is exactly the behaviour behind the
   paper's gradual finish/correct transitions. Misalignment, by contrast,
   raises a real OR1K alignment exception. *)
let check t addr bytes what =
  ignore t;
  if addr land (bytes - 1) <> 0 then trap "misaligned %s at 0x%x" what addr

let wrap t addr = addr land (Bytes.length t - 1)

let read_u32 t addr =
  check t addr 4 "word read";
  let addr = wrap t addr in
  (Char.code (Bytes.unsafe_get t addr) lsl 24)
  lor (Char.code (Bytes.unsafe_get t (addr + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get t (addr + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get t (addr + 3))

let read_u16 t addr =
  check t addr 2 "halfword read";
  let addr = wrap t addr in
  (Char.code (Bytes.unsafe_get t addr) lsl 8) lor Char.code (Bytes.unsafe_get t (addr + 1))

let read_u8 t addr =
  let addr = wrap t addr in
  Char.code (Bytes.unsafe_get t addr)

let write_u32 t addr v =
  check t addr 4 "word write";
  let addr = wrap t addr in
  Bytes.unsafe_set t addr (Char.unsafe_chr ((v lsr 24) land 0xFF));
  Bytes.unsafe_set t (addr + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set t (addr + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set t (addr + 3) (Char.unsafe_chr (v land 0xFF))

let write_u16 t addr v =
  check t addr 2 "halfword write";
  let addr = wrap t addr in
  Bytes.unsafe_set t addr (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set t (addr + 1) (Char.unsafe_chr (v land 0xFF))

let write_u8 t addr v =
  let addr = wrap t addr in
  Bytes.unsafe_set t addr (Char.unsafe_chr (v land 0xFF))

let load_program t (p : Sfi_isa.Program.t) =
  Array.iter (fun (addr, w) -> write_u32 t addr w) p.Sfi_isa.Program.words

let sub_string t ~pos ~len = Bytes.sub_string t pos len

let blit_from_string t ~pos s = Bytes.blit_string s 0 t pos (String.length s)

let equal_range a b ~pos ~len =
  let rec go i = i >= len || (Bytes.unsafe_get a (pos + i) = Bytes.unsafe_get b (pos + i) && go (i + 1)) in
  go 0

let read_u32_array t ~addr ~count = Array.init count (fun i -> read_u32 t (addr + (4 * i)))
