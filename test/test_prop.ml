(* Property-based suites over the numeric substrate, driven by the
   minimal seeded helper in [Prop]. Each property states an oracle —
   a sorted reference, a monotonicity law, or Int64 arithmetic — and
   runs a few hundred random cases against it. *)

open Sfi_util
open Sfi_oracle

(* ---------- Min_heap: pop order vs sorted reference ---------- *)

let heap_keys = Prop.array ~min_len:0 ~max_len:300 (Prop.float ~lo:0. ~hi:1e6)

let drain_floats h =
  let out = ref [] in
  let rec go () =
    let p = Min_heap.pop_unsafe h in
    if p <> Min_heap.no_event then begin
      out := Min_heap.float_of_key (Min_heap.popped_key h) :: !out;
      go ()
    end
  in
  go ();
  Array.of_list (List.rev !out)

let prop_heap_pop_order =
  Prop.test "pop order matches sorted reference" heap_keys (fun xs ->
      let h = Min_heap.create () in
      Array.iteri (fun i x -> Min_heap.push_key h (Min_heap.key_of_float x) i) xs;
      let sorted = Array.copy xs in
      Array.sort compare sorted;
      drain_floats h = sorted)

let prop_heap_interleaved =
  (* Random push/pop interleaving never pops out of order w.r.t. the
     keys present at pop time, and ends empty after draining. *)
  Prop.test "interleaved push/pop stays ordered"
    (Prop.list ~min_len:1 ~max_len:200
       (Prop.pair Prop.bool (Prop.float ~lo:0. ~hi:1e6)))
    (fun ops ->
      let h = Min_heap.create () in
      let ok = ref true in
      let last_popped = ref neg_infinity in
      List.iter
        (fun (push, x) ->
          if push then begin
            Min_heap.push_key h (Min_heap.key_of_float x) 0;
            (* a push can only lower the minimum, never violate order *)
            last_popped := neg_infinity
          end
          else if Min_heap.pop_unsafe h <> Min_heap.no_event then begin
            let v = Min_heap.float_of_key (Min_heap.popped_key h) in
            if v < !last_popped then ok := false;
            last_popped := v
          end)
        ops;
      ignore (drain_floats h);
      !ok && Min_heap.is_empty h)

let prop_heap_peek =
  Prop.test "peek equals subsequent pop"
    (Prop.array ~min_len:1 ~max_len:64 (Prop.float ~lo:0. ~hi:1e6))
    (fun xs ->
      let h = Min_heap.create () in
      Array.iter (fun x -> Min_heap.push h x 0) xs;
      match Min_heap.peek_key h with
      | None -> false
      | Some k -> (
        match Min_heap.pop h with Some (k', _) -> k = k' | None -> false))

(* ---------- Cdf: monotonicity and quantile/probability roundtrip ---------- *)

let cdf_samples = Prop.array ~min_len:1 ~max_len:150 (Prop.float ~lo:0. ~hi:1000.)

let prop_cdf_monotone =
  Prop.test "prob_greater is non-increasing"
    (Prop.triple cdf_samples (Prop.float ~lo:(-10.) ~hi:1010.)
       (Prop.float ~lo:(-10.) ~hi:1010.))
    (fun (xs, x1, x2) ->
      let t = Sfi_timing.Cdf.of_samples xs in
      let lo = Float.min x1 x2 and hi = Float.max x1 x2 in
      Sfi_timing.Cdf.prob_greater t lo >= Sfi_timing.Cdf.prob_greater t hi)

let prop_cdf_quantile_roundtrip =
  Prop.test "prob_leq (quantile q) >= q"
    (Prop.pair cdf_samples (Prop.float ~lo:0. ~hi:1.))
    (fun (xs, q) ->
      let t = Sfi_timing.Cdf.of_samples xs in
      Sfi_timing.Cdf.prob_leq t (Sfi_timing.Cdf.quantile t q) >= q -. 1e-12)

let prop_cdf_quantile_monotone =
  Prop.test "quantile is non-decreasing in q"
    (Prop.triple cdf_samples (Prop.float ~lo:0. ~hi:1.) (Prop.float ~lo:0. ~hi:1.))
    (fun (xs, q1, q2) ->
      let t = Sfi_timing.Cdf.of_samples xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Sfi_timing.Cdf.quantile t lo <= Sfi_timing.Cdf.quantile t hi)

let prop_cdf_bounds =
  Prop.test "quantile stays within sample range" cdf_samples (fun xs ->
      let t = Sfi_timing.Cdf.of_samples xs in
      let q0 = Sfi_timing.Cdf.quantile t 0. and q1 = Sfi_timing.Cdf.quantile t 1. in
      Sfi_timing.Cdf.min_value t <= q0 && q1 <= Sfi_timing.Cdf.max_value t)

(* ---------- Interp: monotone curves invert exactly ---------- *)

(* Strictly increasing anchors with slopes bounded away from zero, so the
   inverse is well-conditioned and a tight tolerance is honest. *)
let mono_curve rng =
  let n = Prop.int ~lo:2 ~hi:12 rng in
  let x = ref (Prop.float ~lo:0. ~hi:5. rng) in
  let y = ref (Prop.float ~lo:0. ~hi:5. rng) in
  List.init n (fun _ ->
      let px = !x and py = !y in
      x := !x +. 0.5 +. Prop.float ~lo:0. ~hi:10. rng;
      y := !y +. 0.5 +. Prop.float ~lo:0. ~hi:10. rng;
      (px, py))

let prop_interp_monotone =
  Prop.test "eval preserves monotonicity"
    (Prop.triple mono_curve (Prop.float ~lo:0. ~hi:1.) (Prop.float ~lo:0. ~hi:1.))
    (fun (pts, u1, u2) ->
      let t = Interp.of_points pts in
      let x0 = fst (List.hd pts) and x1 = fst (List.nth pts (List.length pts - 1)) in
      let at u = x0 +. (u *. (x1 -. x0)) in
      let lo = Float.min u1 u2 and hi = Float.max u1 u2 in
      Interp.eval t (at lo) <= Interp.eval t (at hi) +. 1e-9)

let prop_interp_inverse_roundtrip =
  Prop.test "inverse_eval (eval x) = x"
    (Prop.pair mono_curve (Prop.float ~lo:0. ~hi:1.))
    (fun (pts, u) ->
      let t = Interp.of_points pts in
      let x0 = fst (List.hd pts) and x1 = fst (List.nth pts (List.length pts - 1)) in
      let x = x0 +. (u *. (x1 -. x0)) in
      Float.abs (Interp.inverse_eval t (Interp.eval t x) -. x) < 1e-6)

let prop_interp_anchors_exact =
  Prop.test "eval hits every anchor" mono_curve (fun pts ->
      let t = Interp.of_points pts in
      List.for_all (fun (x, y) -> Float.abs (Interp.eval t x -. y) < 1e-9) pts)

(* ---------- U32 vs Int64 oracle ---------- *)

let m32 = 0xFFFF_FFFFL
let to64 = Int64.of_int
let of64 v = Int64.to_int (Int64.logand v m32)
let ab = Prop.pair Prop.u32 Prop.u32

let prop_u32_add =
  Prop.test "add matches Int64" ab (fun (a, b) ->
      U32.add a b = of64 (Int64.add (to64 a) (to64 b)))

let prop_u32_sub =
  Prop.test "sub matches Int64" ab (fun (a, b) ->
      U32.sub a b = of64 (Int64.sub (to64 a) (to64 b)))

let prop_u32_mul =
  Prop.test "mul matches Int64" ab (fun (a, b) ->
      U32.mul a b = of64 (Int64.mul (to64 a) (to64 b)))

let prop_u32_logic =
  Prop.test "and/or/xor/not match Int64" ab (fun (a, b) ->
      U32.logand a b = of64 (Int64.logand (to64 a) (to64 b))
      && U32.logor a b = of64 (Int64.logor (to64 a) (to64 b))
      && U32.logxor a b = of64 (Int64.logxor (to64 a) (to64 b))
      && U32.lognot a = of64 (Int64.lognot (to64 a)))

let prop_u32_shifts =
  (* Shift amounts reduce modulo 32 (the OR1K barrel shifter). *)
  Prop.test "shifts match Int64 modulo 32"
    (Prop.pair Prop.u32 (Prop.int ~lo:0 ~hi:63))
    (fun (a, s) ->
      let s' = s land 31 in
      U32.shift_left a s = of64 (Int64.shift_left (to64 a) s')
      && U32.shift_right_logical a s = of64 (Int64.shift_right_logical (to64 a) s')
      && U32.shift_right_arith a s
         = of64 (Int64.shift_right (Int64.of_int32 (Int64.to_int32 (to64 a))) s'))

let prop_u32_signed_roundtrip =
  Prop.test "of_signed (to_signed x) = x" Prop.u32 (fun a ->
      U32.of_signed (U32.to_signed a) = a
      && U32.to_signed a = Int64.to_int (Int64.of_int32 (Int64.to_int32 (to64 a))))

let prop_u32_popcount =
  Prop.test "popcount matches bit fold" Prop.u32 (fun a ->
      let n = ref 0 in
      for i = 0 to 31 do
        if U32.bit a i then incr n
      done;
      U32.popcount a = !n)

(* ---------- U32 domain closure: every op stays in [0, 2^32) ---------- *)

let in_domain x = 0 <= x && x <= U32.mask

(* Masks up to 52 bits — well past the 32-bit boundary an injected
   address fault can push a mask computation over. *)
let wide_mask rng =
  let hi = Prop.u32 rng and lo = Prop.u32 rng in
  (hi lsl 20) lor lo

(* Adversarial bit indices (up to 62: the largest the native-int shift
   tolerates) and fault masks wider than 32 bits — the inputs an injected
   address fault actually produces. *)
let prop_u32_set_bit_domain =
  Prop.test "set_bit stays in domain; >=32 is identity"
    (Prop.triple Prop.u32 (Prop.int ~lo:0 ~hi:62) Prop.bool)
    (fun (a, i, v) ->
      let r = U32.set_bit a i v in
      in_domain r
      && (if i < 32 then
            r
            = of64
                (if v then Int64.logor (to64 a) (Int64.shift_left 1L i)
                 else Int64.logand (to64 a) (Int64.lognot (Int64.shift_left 1L i)))
          else r = a))

let prop_u32_flip_bits_domain =
  Prop.test "flip_bits with wide mask = xor with truncated mask"
    (Prop.pair Prop.u32 wide_mask)
    (fun (a, m) ->
      let r = U32.flip_bits a ~mask:m in
      in_domain r && r = U32.logxor a (U32.of_int m))

let prop_u32_closure =
  (* Every exported operation is closed over the canonical range, even
     under adversarial shift amounts, bit indices and masks. *)
  Prop.test "all ops closed over [0, 2^32)"
    (Prop.triple ab (Prop.int ~lo:0 ~hi:62) wide_mask)
    (fun ((a, b), s, m) ->
      List.for_all in_domain
        [
          U32.add a b; U32.sub a b; U32.mul a b; U32.logand a b; U32.logor a b;
          U32.logxor a b; U32.lognot a; U32.shift_left a s;
          U32.shift_right_logical a s; U32.shift_right_arith a s;
          U32.set_bit a s true; U32.set_bit a s false; U32.flip_bits a ~mask:m;
          U32.of_int m; U32.of_signed (U32.to_signed a); U32.sext ~bits:32 m;
        ])

(* ---------- fast-forward: snapshot restore and first-fault sampling ---------- *)

module Insn = Sfi_isa.Insn
module Cpu = Sfi_sim.Cpu
module Memory = Sfi_sim.Memory
module Bench = Sfi_kernels.Bench

(* Random short programs in the style of the cpu_engine parity sweep:
   ALU, memory, compares, short forward branches, an exit marker. *)
let gen_program rng =
  let n = Prop.int ~lo:3 ~hi:40 rng in
  List.init n (fun i ->
      let r () = Prop.int ~lo:0 ~hi:7 rng in
      match Prop.int ~lo:0 ~hi:9 rng with
      | 0 -> Insn.Add (r (), r (), r ())
      | 1 -> Insn.Mul (r (), r (), r ())
      | 2 -> Insn.Addi (r (), r (), Prop.int ~lo:(-8) ~hi:8 rng)
      | 3 -> Insn.Lwz (r (), 0x200, 0)
      | 4 -> Insn.Sw (0x200, 0, r ())
      | 5 -> Insn.Sfi (Insn.Ltu, r (), Prop.int ~lo:0 ~hi:8 rng)
      | 6 -> Insn.Bf (Prop.int ~lo:1 ~hi:(max 1 (n - i)) rng)
      | 7 -> Insn.Xor (r (), r (), r ())
      | 8 -> Insn.Lbz (r (), 0x201, 0)
      | _ -> Insn.Sh (0x202, 0, r ()))
  @ [ Insn.Nop Insn.nop_exit ]

let load_insns insns =
  let program = Sfi_isa.Program.of_insns insns in
  let mem = Memory.create ~size:4096 in
  Memory.load_program mem program;
  mem

(* Restoring any stride-boundary snapshot and rerunning the suffix must
   reproduce the full run cycle-for-cycle: identical final stats and an
   identical fault-hook call stream (cycle, class, operands, result)
   from the restore point on — under either engine. *)
let prop_snapshot_roundtrip =
  Prop.test ~cases:150 "restored suffix equals full run"
    (Prop.pair gen_program (Prop.int ~lo:5 ~hi:100))
    (fun (insns, stride) ->
      let calls = ref [] in
      let hook ~cycle ~cls ~a ~b ~result =
        calls := (cycle, Op_class.index cls, a, b, result) :: !calls;
        0
      in
      let config =
        { Cpu.default_config with Cpu.max_cycles = 5_000; Cpu.fault_hook = Some hook }
      in
      let snaps = ref [] in
      let full_mem = load_insns insns in
      let full_stats =
        Cpu.run_recording ~config ~stride
          ~on_snapshot:(fun s -> snaps := (s, Memory.copy full_mem) :: !snaps)
          full_mem ~entry:0
      in
      let full_calls = List.rev !calls in
      !snaps <> []
      && List.for_all
           (fun (snap, mem_at_snap) ->
             let from = Cpu.snapshot_cycle snap in
             let expect =
               List.filter (fun (c, _, _, _, _) -> c >= from) full_calls
             in
             List.for_all
               (fun engine ->
                 calls := [];
                 let mem = Memory.copy mem_at_snap in
                 let stats = Cpu.run ~config ~engine ~resume:snap mem ~entry:0 in
                 stats = full_stats && List.rev !calls = expect)
               [ Cpu.Interp; Cpu.Auto ])
           !snaps)

(* --- analytic first-fault sampling vs full replay --- *)

let ff_bench = lazy (Option.get (Sfi_kernels.Registry.by_name "median"))

let ff_model = Sfi_core.Flow.model_a ~bit_flip_prob:0.002

let ff_trace =
  lazy
    (let bench = Lazy.force ff_bench in
     let ref_cycles = Sfi_fi.Campaign.reference_cycles bench in
     Option.get
       (Sfi_fi.Fastforward.trace_for ~bench
          ~stride:(Sfi_fi.Fastforward.stride_for ~ref_cycles)))

exception Found of int * int

(* First fault of a genuine full-replay trial: a real injector on the
   real ISS, stopped at the first nonzero mask. *)
let full_first_fault ~rng =
  let bench = Lazy.force ff_bench in
  let inj =
    Sfi_fi.Injector.create ~count_obs:false ~model:ff_model ~freq_mhz:700. ~rng ()
  in
  let h = Sfi_fi.Injector.hook inj in
  let hook ~cycle ~cls ~a ~b ~result =
    if h ~cycle ~cls ~a ~b ~result <> 0 then raise (Found (cycle, Op_class.index cls))
    else 0
  in
  let budget = (3 * Sfi_fi.Campaign.reference_cycles bench) + 65536 in
  let config =
    { Cpu.default_config with Cpu.max_cycles = budget; Cpu.fault_hook = Some hook }
  in
  let mem = Bench.fresh_memory bench in
  match
    Cpu.run ~config ~engine:Cpu.Interp mem
      ~entry:bench.Bench.program.Sfi_isa.Program.entry
  with
  | _ -> None
  | exception Found (c, k) -> Some (c, k)

let probe_first_fault ~rng =
  match
    Sfi_fi.Fastforward.first_fault ~model:ff_model ~freq_mhz:700.
      ~trace:(Lazy.force ff_trace) ~rng
  with
  | None -> None
  | Some (c, cls) -> Some (c, Op_class.index cls)

(* Draw-accounting exactness: on the same RNG stream the analytic probe
   and the full replay find the identical first fault. *)
let test_first_fault_exact () =
  for seed = 1 to 500 do
    let full = full_first_fault ~rng:(Rng.of_int seed) in
    let probe = probe_first_fault ~rng:(Rng.of_int seed) in
    if full <> probe then
      Alcotest.failf "seed %d: full replay and probe disagree" seed
  done

(* Two-sample Kolmogorov-Smirnov statistic over int samples. *)
let ks_stat a b =
  let a = Array.copy a and b = Array.copy b in
  Array.sort compare a;
  Array.sort compare b;
  let na = Array.length a and nb = Array.length b in
  let d = ref 0. and i = ref 0 and j = ref 0 in
  (* advance past every element equal to the current value on both
     sides before comparing — the samples are discrete and heavily
     tied, and the CDFs only jump at distinct values *)
  while !i < na && !j < nb do
    let v = if a.(!i) <= b.(!j) then a.(!i) else b.(!j) in
    while !i < na && a.(!i) = v do
      incr i
    done;
    while !j < nb && b.(!j) = v do
      incr j
    done;
    let fa = float_of_int !i /. float_of_int na in
    let fb = float_of_int !j /. float_of_int nb in
    d := Float.max !d (Float.abs (fa -. fb))
  done;
  !d

(* Distributional agreement on disjoint seed sets: 10k full-replay
   trials vs 10k analytically sampled ones. KS on the first-fault
   cycles (the 0.1% critical value at n=m=10k is ~0.028) and a
   two-sample chi-square on the per-class first-fault counts. *)
let test_first_fault_distribution () =
  let n = 10_000 in
  let collect f lo =
    Array.to_list (Array.init n (fun i -> f ~rng:(Rng.of_int (lo + i))))
    |> List.filter_map Fun.id
  in
  let full = collect full_first_fault 1 in
  let probe = collect probe_first_fault 20_001 in
  (* p = 0.002 faults nearly every trial; both sides must agree on the
     faulting fraction to within noise before the shape tests mean
     anything. *)
  let frac xs = float_of_int (List.length xs) /. float_of_int n in
  Alcotest.(check bool) "faulting fractions close" true
    (Float.abs (frac full -. frac probe) < 0.02);
  let cycles xs = Array.of_list (List.map fst xs) in
  let d = ks_stat (cycles full) (cycles probe) in
  if d > 0.035 then Alcotest.failf "KS statistic %.4f exceeds 0.035" d;
  let class_counts xs =
    let t = Array.make Op_class.count 0 in
    List.iter (fun (_, k) -> t.(k) <- t.(k) + 1) xs;
    t
  in
  let ca = class_counts full and cb = class_counts probe in
  let chi2 = ref 0. and df = ref (-1) in
  Array.iteri
    (fun k a ->
      let b = cb.(k) in
      if a + b >= 10 then begin
        incr df;
        let a = float_of_int a and b = float_of_int b in
        chi2 := !chi2 +. (((a -. b) ** 2.) /. (a +. b))
      end)
    ca;
  (* 0.1% critical values: df<=8 -> ~26; stay well under with margin *)
  if !chi2 > 30. then
    Alcotest.failf "per-class chi-square %.2f (df %d) exceeds 30" !chi2 !df

let () =
  Alcotest.run "sfi_prop"
    [
      ("min_heap", [ prop_heap_pop_order; prop_heap_interleaved; prop_heap_peek ]);
      ( "cdf",
        [
          prop_cdf_monotone; prop_cdf_quantile_roundtrip; prop_cdf_quantile_monotone;
          prop_cdf_bounds;
        ] );
      ( "interp",
        [ prop_interp_monotone; prop_interp_inverse_roundtrip; prop_interp_anchors_exact ]
      );
      ( "u32",
        [
          prop_u32_add; prop_u32_sub; prop_u32_mul; prop_u32_logic; prop_u32_shifts;
          prop_u32_signed_roundtrip; prop_u32_popcount; prop_u32_set_bit_domain;
          prop_u32_flip_bits_domain; prop_u32_closure;
        ] );
      ( "fastforward",
        [
          prop_snapshot_roundtrip;
          Alcotest.test_case "first fault exact on shared stream" `Quick
            test_first_fault_exact;
          Alcotest.test_case "first fault distribution (KS + chi-square)" `Quick
            test_first_fault_distribution;
        ] );
    ]
