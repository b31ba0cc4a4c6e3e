open Sfi_util

type reg = int

type cmp = Eq | Ne | Gtu | Geu | Ltu | Leu | Gts | Ges | Lts | Les

type t =
  | Add of reg * reg * reg
  | Sub of reg * reg * reg
  | And of reg * reg * reg
  | Or of reg * reg * reg
  | Xor of reg * reg * reg
  | Mul of reg * reg * reg
  | Sll of reg * reg * reg
  | Srl of reg * reg * reg
  | Sra of reg * reg * reg
  | Addi of reg * reg * int
  | Andi of reg * reg * int
  | Ori of reg * reg * int
  | Xori of reg * reg * int
  | Muli of reg * reg * int
  | Slli of reg * reg * int
  | Srli of reg * reg * int
  | Srai of reg * reg * int
  | Movhi of reg * int
  | Sf of cmp * reg * reg
  | Sfi of cmp * reg * int
  | J of int
  | Jal of int
  | Jr of reg
  | Jalr of reg
  | Bf of int
  | Bnf of int
  | Lwz of reg * int * reg
  | Lhz of reg * int * reg
  | Lbz of reg * int * reg
  | Sw of int * reg * reg
  | Sh of int * reg * reg
  | Sb of int * reg * reg
  | Nop of int

let nop_exit = 0x0001

let nop_kernel_begin = 0x0010

let nop_kernel_end = 0x0011

let link_register = 9

let op_class = function
  | Add (_, _, _) | Addi (_, _, _) -> Some Op_class.Add
  | Sub (_, _, _) -> Some Op_class.Sub
  | Mul (_, _, _) | Muli (_, _, _) -> Some Op_class.Mul
  | Sll (_, _, _) | Slli (_, _, _) -> Some Op_class.Sll
  | Srl (_, _, _) | Srli (_, _, _) -> Some Op_class.Srl
  | Sra (_, _, _) | Srai (_, _, _) -> Some Op_class.Sra
  | And (_, _, _) | Andi (_, _, _) -> Some Op_class.And_
  | Or (_, _, _) | Ori (_, _, _) | Movhi (_, _) -> Some Op_class.Or_
  | Xor (_, _, _) | Xori (_, _, _) -> Some Op_class.Xor_
  (* Compares compute through the subtractor but latch only the 1-bit
     flag, which is not among the 32 ALU-endpoint flip-flops the case
     study injects into (the flag path is in the timing-safe set, like
     branches); see paper Sec. 2.1. *)
  | Sf (_, _, _) | Sfi (_, _, _)
  | J _ | Jal _ | Jr _ | Jalr _ | Bf _ | Bnf _
  | Lwz (_, _, _) | Lhz (_, _, _) | Lbz (_, _, _)
  | Sw (_, _, _) | Sh (_, _, _) | Sb (_, _, _)
  | Nop _ -> None

let writes = function
  | Add (d, _, _) | Sub (d, _, _) | And (d, _, _) | Or (d, _, _) | Xor (d, _, _)
  | Mul (d, _, _) | Sll (d, _, _) | Srl (d, _, _) | Sra (d, _, _)
  | Addi (d, _, _) | Andi (d, _, _) | Ori (d, _, _) | Xori (d, _, _)
  | Muli (d, _, _) | Slli (d, _, _) | Srli (d, _, _) | Srai (d, _, _)
  | Movhi (d, _)
  | Lwz (d, _, _) | Lhz (d, _, _) | Lbz (d, _, _) -> Some d
  | Jal _ | Jalr _ -> Some link_register
  | Sf (_, _, _) | Sfi (_, _, _) | J _ | Jr _ | Bf _ | Bnf _
  | Sw (_, _, _) | Sh (_, _, _) | Sb (_, _, _) | Nop _ -> None

let reads = function
  | Add (_, a, b) | Sub (_, a, b) | And (_, a, b) | Or (_, a, b) | Xor (_, a, b)
  | Mul (_, a, b) | Sll (_, a, b) | Srl (_, a, b) | Sra (_, a, b)
  | Sf (_, a, b) -> [ a; b ]
  | Addi (_, a, _) | Andi (_, a, _) | Ori (_, a, _) | Xori (_, a, _)
  | Muli (_, a, _) | Slli (_, a, _) | Srli (_, a, _) | Srai (_, a, _)
  | Sfi (_, a, _)
  | Lwz (_, _, a) | Lhz (_, _, a) | Lbz (_, _, a) -> [ a ]
  | Sw (_, a, b) | Sh (_, a, b) | Sb (_, a, b) -> [ a; b ]
  | Jr r | Jalr r -> [ r ]
  | Movhi (_, _) | J _ | Jal _ | Bf _ | Bnf _ | Nop _ -> []

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Gtu -> "gtu"
  | Geu -> "geu"
  | Ltu -> "ltu"
  | Leu -> "leu"
  | Gts -> "gts"
  | Ges -> "ges"
  | Lts -> "lts"
  | Les -> "les"

let all_cmps = [ Eq; Ne; Gtu; Geu; Ltu; Leu; Gts; Ges; Lts; Les ]

let cmp_of_name s = List.find_opt (fun c -> cmp_name c = s) all_cmps

let r i = Printf.sprintf "r%d" i

let to_string = function
  | Add (d, a, b) -> Printf.sprintf "l.add %s, %s, %s" (r d) (r a) (r b)
  | Sub (d, a, b) -> Printf.sprintf "l.sub %s, %s, %s" (r d) (r a) (r b)
  | And (d, a, b) -> Printf.sprintf "l.and %s, %s, %s" (r d) (r a) (r b)
  | Or (d, a, b) -> Printf.sprintf "l.or %s, %s, %s" (r d) (r a) (r b)
  | Xor (d, a, b) -> Printf.sprintf "l.xor %s, %s, %s" (r d) (r a) (r b)
  | Mul (d, a, b) -> Printf.sprintf "l.mul %s, %s, %s" (r d) (r a) (r b)
  | Sll (d, a, b) -> Printf.sprintf "l.sll %s, %s, %s" (r d) (r a) (r b)
  | Srl (d, a, b) -> Printf.sprintf "l.srl %s, %s, %s" (r d) (r a) (r b)
  | Sra (d, a, b) -> Printf.sprintf "l.sra %s, %s, %s" (r d) (r a) (r b)
  | Addi (d, a, i) -> Printf.sprintf "l.addi %s, %s, %d" (r d) (r a) i
  | Andi (d, a, i) -> Printf.sprintf "l.andi %s, %s, %d" (r d) (r a) i
  | Ori (d, a, i) -> Printf.sprintf "l.ori %s, %s, %d" (r d) (r a) i
  | Xori (d, a, i) -> Printf.sprintf "l.xori %s, %s, %d" (r d) (r a) i
  | Muli (d, a, i) -> Printf.sprintf "l.muli %s, %s, %d" (r d) (r a) i
  | Slli (d, a, i) -> Printf.sprintf "l.slli %s, %s, %d" (r d) (r a) i
  | Srli (d, a, i) -> Printf.sprintf "l.srli %s, %s, %d" (r d) (r a) i
  | Srai (d, a, i) -> Printf.sprintf "l.srai %s, %s, %d" (r d) (r a) i
  | Movhi (d, k) -> Printf.sprintf "l.movhi %s, %d" (r d) k
  | Sf (c, a, b) -> Printf.sprintf "l.sf%s %s, %s" (cmp_name c) (r a) (r b)
  | Sfi (c, a, i) -> Printf.sprintf "l.sf%si %s, %d" (cmp_name c) (r a) i
  | J n -> Printf.sprintf "l.j %d" n
  | Jal n -> Printf.sprintf "l.jal %d" n
  | Jr rr -> Printf.sprintf "l.jr %s" (r rr)
  | Jalr rr -> Printf.sprintf "l.jalr %s" (r rr)
  | Bf n -> Printf.sprintf "l.bf %d" n
  | Bnf n -> Printf.sprintf "l.bnf %d" n
  | Lwz (d, i, a) -> Printf.sprintf "l.lwz %s, %d(%s)" (r d) i (r a)
  | Lhz (d, i, a) -> Printf.sprintf "l.lhz %s, %d(%s)" (r d) i (r a)
  | Lbz (d, i, a) -> Printf.sprintf "l.lbz %s, %d(%s)" (r d) i (r a)
  | Sw (i, a, b) -> Printf.sprintf "l.sw %d(%s), %s" i (r a) (r b)
  | Sh (i, a, b) -> Printf.sprintf "l.sh %d(%s), %s" i (r a) (r b)
  | Sb (i, a, b) -> Printf.sprintf "l.sb %d(%s), %s" i (r a) (r b)
  | Nop k -> Printf.sprintf "l.nop %d" k
