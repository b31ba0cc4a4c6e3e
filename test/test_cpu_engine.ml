open Sfi_util
open Sfi_isa
open Sfi_sim

(* Differential tests pinning the compiled basic-block engine to the
   interpreter: same cycles, same stats, same fault-hook call stream,
   same trace ordering, same outcomes — on the paths where the two
   implementations genuinely diverge in mechanism (block caching,
   batched accounting, threaded-code chaining). *)

(* ---------- helpers ---------- *)

let run_insns engine ?(size = 4096) ?(config = Cpu.default_config) insns =
  let program = Program.of_insns insns in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = Cpu.run ~config ~engine mem ~entry:0 in
  (stats, mem)

let run_asm engine ?(size = 4096) ?(config = Cpu.default_config) src =
  let program = Asm.assemble_exn src in
  let mem = Memory.create ~size in
  Memory.load_program mem program;
  let stats = Cpu.run ~config ~engine mem ~entry:program.Program.entry in
  (stats, mem)

let check_stats_equal what (a : Cpu.stats) (b : Cpu.stats) =
  if a <> b then
    Alcotest.failf "%s: interp and compiled stats differ (%d vs %d cycles, %d vs %d instret)"
      what a.Cpu.cycles b.Cpu.cycles a.Cpu.instret b.Cpu.instret

(* Runs the same program under both engines and checks full stats
   equality plus an optional memory-word probe. *)
let parity ?(probe = []) ?size ?config what insns =
  let si, mi = run_insns Cpu.Interp ?size ?config insns in
  let sc, mc = run_insns Cpu.Auto ?size ?config insns in
  check_stats_equal what si sc;
  List.iter
    (fun addr ->
      Alcotest.(check int)
        (Printf.sprintf "%s: word 0x%x" what addr)
        (Memory.read_u32 mi addr) (Memory.read_u32 mc addr))
    probe

let parity_asm ?(probe = []) ?size ?config what src =
  let si, mi = run_asm Cpu.Interp ?size ?config src in
  let sc, mc = run_asm Cpu.Auto ?size ?config src in
  check_stats_equal what si sc;
  List.iter
    (fun addr ->
      Alcotest.(check int)
        (Printf.sprintf "%s: word 0x%x" what addr)
        (Memory.read_u32 mi addr) (Memory.read_u32 mc addr))
    probe

(* ---------- kernel parity: full benchmarks, fault-free ---------- *)

let test_kernel_parity () =
  List.iter
    (fun name ->
      match Sfi_kernels.Registry.by_name name with
      | None -> Alcotest.failf "unknown bench %s" name
      | Some bench ->
        let si, oi = Sfi_kernels.Bench.run_fault_free ~engine:Cpu.Interp bench in
        let sc, oc = Sfi_kernels.Bench.run_fault_free ~engine:Cpu.Auto bench in
        check_stats_equal name si sc;
        if oi <> oc then Alcotest.failf "%s: outputs differ between engines" name;
        if oc <> bench.Sfi_kernels.Bench.golden then
          Alcotest.failf "%s: compiled output differs from golden" name)
    Sfi_kernels.Registry.names

(* ---------- fault-hook stream parity ---------- *)

(* The hook's observable inputs (cycle, class, operands, clean result)
   and its injected masks must line up call for call: the compiled
   engine pre-resolves operands at block-build time and gates the call
   on a block-entry fi flag, both of which would skew this stream if
   wrong. The mask depends on every argument, so a single misaligned
   call derails the rest of the run — divergence cannot cancel out. *)
let test_hook_stream_parity () =
  let run engine =
    let calls = ref [] in
    let hook ~cycle ~cls ~a ~b ~result =
      calls := (cycle, Op_class.index cls, a, b, result) :: !calls;
      (cycle lxor a lxor b lxor result) land 0xFF
    in
    let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
    let stats, mem =
      run_asm engine ~config
        {|
        l.addi r1, r0, 40
        l.nop  0x10
loop:   l.add  r2, r2, r1
        l.mul  r3, r2, r1
        l.sw   0x200(r0), r3
        l.lwz  r4, 0x200(r0)
        l.xor  r5, r4, r2
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.nop  0x11
        l.sw   0x100(r0), r5
        l.nop  0x1
      |}
    in
    (stats, List.rev !calls, Memory.read_u32 mem 0x100)
  in
  let si, ci, wi = run Cpu.Interp in
  let sc, cc, wc = run Cpu.Auto in
  check_stats_equal "hook stream" si sc;
  Alcotest.(check int) "call count" (List.length ci) (List.length cc);
  if ci <> cc then Alcotest.fail "hook stream: call sequences differ";
  Alcotest.(check int) "faulted result" wi wc

(* ---------- self-modifying stores ---------- *)

let test_selfmod_parity () =
  (* A store patches an instruction of the loop it executes from; the
     compiled engine must flush the block cache and re-enter through
     the dispatcher with identical cycle accounting. *)
  let patched = Encode.encode (Insn.Addi (3, 3, 10)) in
  parity_asm ~probe:[ 0x100 ] "self-modifying loop"
    (Printf.sprintf
       {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r4, r0, 0
loop:
target: l.addi  r3, r3, 1
        l.sw    0(r1), r2
        l.sfeqi r4, 0
        l.addi  r4, r4, 1
        l.bf    loop
        l.sw    0x100(r0), r3
        l.nop   0x1
      |}
       patched patched)

let test_selfmod_store_into_own_block () =
  (* The store lands on the instruction directly after itself — inside
     the currently-executing block. The compiled engine must abort the
     block at the store, retire exactly the instructions up to and
     including it, and re-decode before the patched word executes. *)
  let exit_word = Encode.encode (Insn.Nop Insn.nop_exit) in
  parity_asm ~probe:[ 0x100 ] "store into own block"
    (Printf.sprintf
       {|
        l.movhi r1, hi(target)
        l.ori   r1, r1, lo(target)
        l.movhi r2, hi(0x%08x)
        l.ori   r2, r2, lo(0x%08x)
        l.addi  r3, r0, 7
        l.sw    0x100(r0), r3
        l.sw    0(r1), r2
target: .word 0xffffffff
      |}
       exit_word exit_word)

(* ---------- trace-hook ordering ---------- *)

let test_trace_order_parity () =
  let run engine =
    let traced = ref [] in
    let config =
      {
        Cpu.default_config with
        Cpu.trace = Some (fun ~pc insn -> traced := (pc, Insn.to_string insn) :: !traced);
      }
    in
    let stats, _ =
      run_asm engine ~config
        {|
        l.addi r1, r0, 5
loop:   l.addi r2, r2, 1
        l.addi r1, r1, -1
        l.sfnei r1, 0
        l.bf   loop
        l.jal  sub
        l.nop  0x1
sub:    l.addi r3, r0, 9
        l.jr   r9
      |}
    in
    (stats, List.rev !traced)
  in
  let si, ti = run Cpu.Interp in
  let sc, tc = run Cpu.Auto in
  check_stats_equal "trace order" si sc;
  if ti <> tc then Alcotest.fail "trace order: per-instruction (pc, insn) streams differ"

let test_trace_illegal_not_traced () =
  (* An illegal word traps at fetch; neither engine may call the trace
     hook for it (the compiled engine captures decoded insns at block
     build time, so the skip must be deliberate there). *)
  let run engine =
    let traced = ref [] in
    let config =
      { Cpu.default_config with Cpu.trace = Some (fun ~pc _ -> traced := pc :: !traced) }
    in
    let program = Program.of_insns [ Insn.Addi (1, 0, 1); Insn.Nop 0 ] in
    let mem = Memory.create ~size:4096 in
    Memory.load_program mem program;
    Memory.write_u32 mem 8 0xFFFF_FFFF;
    let stats = Cpu.run ~config ~engine mem ~entry:0 in
    (stats, List.rev !traced)
  in
  let si, ti = run Cpu.Interp in
  let sc, tc = run Cpu.Auto in
  check_stats_equal "illegal trace" si sc;
  (match si.Cpu.outcome with
  | Cpu.Trapped _ -> ()
  | _ -> Alcotest.fail "expected trap");
  Alcotest.(check (list int)) "traced pcs" ti tc;
  Alcotest.(check bool) "illegal pc not traced" false (List.mem 8 ti)

(* ---------- outcomes ---------- *)

let test_watchdog_parity () =
  let config = { Cpu.default_config with Cpu.max_cycles = 1000 } in
  parity ~config "watchdog budget" [ Insn.Addi (1, 0, 1); Insn.J (-1) ];
  (* Jump-to-self is recognized as an architectural hang without
     burning the budget — in both engines. *)
  parity "jump to self" [ Insn.Addi (1, 0, 1); Insn.J 0 ]

let test_watchdog_mid_block () =
  (* Budgets that expire mid-block force the compiled engine onto its
     per-instruction fallback path near the limit; every budget value
     must still produce the interpreter's exact cycle count. *)
  let insns =
    [
      Insn.Addi (1, 0, 1); Insn.Addi (2, 0, 2); Insn.Mul (3, 1, 2);
      Insn.Lwz (4, 0x100, 0); Insn.Add (5, 4, 3); Insn.J (-5);
    ]
  in
  for budget = 1 to 40 do
    let config = { Cpu.default_config with Cpu.max_cycles = budget } in
    parity ~config (Printf.sprintf "budget %d" budget) insns
  done

let test_trap_parity () =
  parity "misaligned load"
    [ Insn.Addi (1, 0, 2); Insn.Lwz (2, 0, 1); Insn.Nop Insn.nop_exit ];
  parity "misaligned store"
    [ Insn.Addi (1, 0, 6); Insn.Sw (0, 1, 1); Insn.Nop Insn.nop_exit ];
  parity "misaligned jump target"
    [ Insn.Addi (1, 0, 2); Insn.Jr 1; Insn.Nop Insn.nop_exit ];
  let illegal engine =
    let program = Program.of_insns [ Insn.Addi (1, 0, 1) ] in
    let mem = Memory.create ~size:4096 in
    Memory.load_program mem program;
    Memory.write_u32 mem 4 0xFFFF_FFFF;
    Cpu.run ~engine mem ~entry:0
  in
  check_stats_equal "illegal instruction" (illegal Cpu.Interp) (illegal Cpu.Auto)

(* ---------- kernel markers mid-block ---------- *)

let test_fi_toggle_mid_block () =
  (* Markers in the middle of straight-line code: the compiled engine
     terminates blocks at markers so the fi window stays constant
     within a block; the hook-call count and windowed counters must
     match the interpreter exactly, including a window that opens and
     closes twice. *)
  let run engine =
    let calls = ref 0 in
    let hook ~cycle:_ ~cls:_ ~a:_ ~b:_ ~result:_ =
      incr calls;
      0
    in
    let config = { Cpu.default_config with Cpu.fault_hook = Some hook } in
    let stats, _ =
      run_insns engine ~config
        [
          Insn.Addi (1, 0, 1);
          Insn.Nop Insn.nop_kernel_begin;
          Insn.Addi (2, 0, 2);
          Insn.Lwz (3, 0x100, 0);
          Insn.Nop Insn.nop_kernel_end;
          Insn.Addi (4, 0, 4);
          Insn.Nop Insn.nop_kernel_begin;
          Insn.Mul (5, 2, 4);
          Insn.Nop Insn.nop_kernel_end;
          Insn.Nop Insn.nop_exit;
        ]
    in
    (stats, !calls)
  in
  let si, ci = run Cpu.Interp in
  let sc, cc = run Cpu.Auto in
  check_stats_equal "fi toggle" si sc;
  Alcotest.(check int) "hook calls" ci cc;
  (* Each window retires its begin marker, its body and its end marker
     inside the fi accounting: (1+2+1) + (1+1+1). *)
  Alcotest.(check int) "two windows counted" 7 si.Cpu.kernel_instret

(* ---------- campaign point parity ---------- *)

let test_campaign_point_parity () =
  (* A full Monte-Carlo point through the default-engine switch: same
     point (all rates, CIs, trial counts) and the same deterministic
     observability signature. Model A needs no netlist, so this runs
     the whole campaign stack quickly; the fault masks perturb control
     flow enough that some trials watchdog or trap. *)
  let bench = Sfi_kernels.Median.create ~n:17 () in
  let model = Sfi_core.Flow.model_a ~bit_flip_prob:5e-4 in
  let spec =
    Sfi_fi.Campaign.Spec.(default |> with_trials 12 |> with_jobs 1 |> with_seed 42)
  in
  ignore (Sfi_fi.Campaign.reference_cycles bench) (* warm the memo for both runs *);
  let run_with engine =
    Cpu.set_default_engine engine;
    Sfi_obs.reset ();
    Sfi_obs.set_enabled true;
    let p = Sfi_fi.Campaign.run spec ~bench ~model ~freq_mhz:800. in
    let s = Sfi_obs.det_signature () in
    Sfi_obs.set_enabled false;
    (Sfi_fi.Campaign.Point_json.to_string (Sfi_fi.Campaign.Point_json.of_sweep [ p ]), s)
  in
  Fun.protect
    ~finally:(fun () -> Cpu.set_default_engine Cpu.Auto)
    (fun () ->
      let pi, sigi = run_with Cpu.Interp in
      let pc, sigc = run_with Cpu.Auto in
      Alcotest.(check string) "point JSON" pi pc;
      if sigi <> sigc then
        Alcotest.fail "campaign point: det_signature differs between engines")

(* Checkpoints carry trial results, never engine state: a sweep killed
   under the interpreter (its checkpoint truncated after 3 of its 8
   batches) resumes under the production engine to the uninterrupted
   run's exact sfi-point/1 JSON. *)
let test_checkpoint_interp_resumes_under_auto () =
  let module Spec = Sfi_fi.Campaign.Spec in
  let bench = Sfi_kernels.Median.create ~n:17 () in
  let model = Sfi_core.Flow.model_a ~bit_flip_prob:5e-4 in
  let freqs_mhz = [ 700.; 800. ] in
  let path = Filename.temp_file "sfi-engine-ckpt" ".jsonl" in
  (* non-converging adaptive spec: always 4 batches of 6 per point *)
  let spec ckpt =
    let s = Spec.(default |> with_adaptive ~batch:6 ~max_trials:24 ~ci_target:0.01 |> with_seed 5) in
    if ckpt then Spec.with_checkpoint path s else s
  in
  let sweep ckpt =
    Sfi_fi.Campaign.Point_json.to_string
      (Sfi_fi.Campaign.Point_json.of_sweep
         (Sfi_fi.Campaign.run_sweep (spec ckpt) ~bench ~model ~freqs_mhz))
  in
  let resumed = Sfi_obs.Counter.make ~det:false "campaign.resumed_trials" in
  Fun.protect
    ~finally:(fun () ->
      Cpu.set_default_engine Cpu.Auto;
      Sfi_obs.set_enabled false;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let clean = sweep false in
      Cpu.set_default_engine Cpu.Interp;
      ignore (sweep true : string);
      let ic = open_in_bin path in
      let lines = List.filteri (fun i _ -> i < 3) (In_channel.input_lines ic) in
      close_in ic;
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      Cpu.set_default_engine Cpu.Auto;
      Sfi_obs.reset ();
      Sfi_obs.set_enabled true;
      let resumed_json = sweep true in
      Alcotest.(check int) "3 batches of 6 resumed" 18 (Sfi_obs.Counter.value resumed);
      Alcotest.(check string) "resumed point JSON" clean resumed_json)

(* ---------- allocation pins ---------- *)

(* Steady-state execution must not allocate per instruction in either
   engine: all compiled-engine allocation (blocks, closures, decode
   table) happens at block-build time. Measured as the growth between a
   short and a long run of the same loop — setup and compile cost
   cancels, leaving the per-instruction rate. *)
let test_steady_state_allocation () =
  let loop iters =
    Printf.sprintf
      {|
        l.movhi r1, hi(%d)
        l.ori   r1, r1, lo(%d)
loop:   l.add   r2, r2, r1
        l.lwz   r3, 0x200(r0)
        l.xor   r4, r3, r2
        l.sw    0x200(r0), r4
        l.addi  r1, r1, -1
        l.sfnei r1, 0
        l.bf    loop
        l.nop   0x1
      |}
      iters iters
  in
  List.iter
    (fun engine ->
      let measure iters =
        let program = Asm.assemble_exn (loop iters) in
        let mem = Memory.create ~size:4096 in
        Memory.load_program mem program;
        let w0 = Gc.minor_words () in
        let stats = Cpu.run ~engine mem ~entry:program.Program.entry in
        let dw = Gc.minor_words () -. w0 in
        (dw, stats.Cpu.instret)
      in
      ignore (measure 100) (* warm boxing of the Gc counter itself *);
      let dw_small, n_small = measure 1_000 in
      let dw_big, n_big = measure 50_000 in
      let per_insn = (dw_big -. dw_small) /. float_of_int (n_big - n_small) in
      if per_insn > 0.01 then
        Alcotest.failf "%s engine allocates %.3f words/insn in steady state"
          (Cpu.engine_name engine) per_insn)
    [ Cpu.Interp; Cpu.Auto ]

let test_decode_into_allocation_free () =
  (* A cold decode fill allocates nothing (the point of the unboxed
     sentinel-coded table): decode a mix of legal and illegal words
     repeatedly and pin the minor-heap growth to zero. *)
  let words =
    Array.init 64 (fun i ->
        if i land 3 = 0 then 0xFFFF_FFFF (* illegal *)
        else Encode.encode (Insn.Addi (1, 2, i)))
  in
  let tab = Array.make (Array.length words * 4) Sfi_isa.Uop.u_unfilled in
  (* A plain for loop: Array.iteri would allocate its closure on every
     call and charge it to the decoder. *)
  let fill () =
    for idx = 0 to Array.length words - 1 do
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask:4095 (Array.unsafe_get words idx)
    done
  in
  fill () (* warm *);
  let w0 = Gc.minor_words () in
  for _ = 1 to 100 do fill () done;
  let dw = Gc.minor_words () -. w0 in
  (* The first Gc.minor_words call boxes its float result; everything
     after must be flat. *)
  if dw > 16. then Alcotest.failf "decode_into allocated %.0f minor words" dw

(* ---------- uop decode vs Encode.decode ---------- *)

(* Reference quad for a decoded instruction, written against the
   documented uop layout. Together with the random-word legality check
   below this pins [Uop.decode_into] to [Encode.decode] case by case. *)
let expected_quad ~pc ~addr_mask insn =
  let module U = Sfi_isa.Uop in
  let open Insn in
  let cls c = Op_class.index c in
  let target off = (pc + (off * 4)) land addr_mask in
  let u32 v = v land 0xFFFF_FFFF in
  match insn with
  | Add (d, a, b) -> (U.u_alu_rr + cls Op_class.Add, d, a, b)
  | Sub (d, a, b) -> (U.u_alu_rr + cls Op_class.Sub, d, a, b)
  | Mul (d, a, b) -> (U.u_alu_rr + cls Op_class.Mul, d, a, b)
  | Sll (d, a, b) -> (U.u_alu_rr + cls Op_class.Sll, d, a, b)
  | Srl (d, a, b) -> (U.u_alu_rr + cls Op_class.Srl, d, a, b)
  | Sra (d, a, b) -> (U.u_alu_rr + cls Op_class.Sra, d, a, b)
  | And (d, a, b) -> (U.u_alu_rr + cls Op_class.And_, d, a, b)
  | Or (d, a, b) -> (U.u_alu_rr + cls Op_class.Or_, d, a, b)
  | Xor (d, a, b) -> (U.u_alu_rr + cls Op_class.Xor_, d, a, b)
  | Addi (d, a, i) -> (U.u_alu_ri + cls Op_class.Add, d, a, u32 i)
  | Muli (d, a, i) -> (U.u_alu_ri + cls Op_class.Mul, d, a, u32 i)
  | Andi (d, a, i) -> (U.u_alu_ri + cls Op_class.And_, d, a, u32 i)
  | Ori (d, a, i) -> (U.u_alu_ri + cls Op_class.Or_, d, a, u32 i)
  | Xori (d, a, i) -> (U.u_alu_ri + cls Op_class.Xor_, d, a, u32 i)
  | Slli (d, a, s) -> (U.u_alu_ri + cls Op_class.Sll, d, a, s)
  | Srli (d, a, s) -> (U.u_alu_ri + cls Op_class.Srl, d, a, s)
  | Srai (d, a, s) -> (U.u_alu_ri + cls Op_class.Sra, d, a, s)
  | Movhi (d, k) -> (U.u_alu_ri + cls Op_class.Or_, d, 0, k lsl 16)
  | Sf (c, a, b) -> (U.u_sf, U.cmp_index c, a, b)
  | Sfi (c, a, i) -> (U.u_sfi, U.cmp_index c, a, u32 i)
  | J 0 -> (U.u_j_self, 0, 0, 0)
  | J off -> (U.u_j, target off, 0, 0)
  | Jal off -> (U.u_jal, target off, u32 (pc + 4), 0)
  | Jr b -> (U.u_jr, b, 0, 0)
  | Jalr b -> (U.u_jalr, b, u32 (pc + 4), 0)
  | Bf off -> (U.u_bf, target off, 0, 0)
  | Bnf off -> (U.u_bnf, target off, 0, 0)
  | Lwz (d, i, a) -> (U.u_lwz, d, u32 i, a)
  | Lhz (d, i, a) -> (U.u_lhz, d, u32 i, a)
  | Lbz (d, i, a) -> (U.u_lbz, d, u32 i, a)
  | Sw (i, a, b) -> (U.u_sw, u32 i, a, b)
  | Sh (i, a, b) -> (U.u_sh, u32 i, a, b)
  | Sb (i, a, b) -> (U.u_sb, u32 i, a, b)
  | Nop k ->
    let o =
      if k = nop_exit then U.u_nop_exit
      else if k = nop_kernel_begin then U.u_nop_kernel_begin
      else if k = nop_kernel_end then U.u_nop_kernel_end
      else U.u_nop
    in
    (o, 0, 0, 0)

let quad_of tab idx = (tab.(idx * 4), tab.((idx * 4) + 1), tab.((idx * 4) + 2), tab.((idx * 4) + 3))

let prop_uop_matches_encode =
  (* Uniform random words exercise the reject cases (most words are
     illegal); the addr_mask and idx vary so target wrapping is hit. *)
  Prop.test ~cases:2000 "decode_into mirrors Encode.decode on random words"
    (Prop.pair Prop.u32 (Prop.int ~lo:0 ~hi:255))
    (fun (w, idx) ->
      let addr_mask = 4095 in
      let tab = Array.make ((idx + 1) * 4) Sfi_isa.Uop.u_unfilled in
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask w;
      match Encode.decode w with
      | None -> quad_of tab idx = (Sfi_isa.Uop.u_illegal, 0, 0, 0)
      | Some insn -> quad_of tab idx = expected_quad ~pc:(idx * 4) ~addr_mask insn)

let prop_uop_matches_encode_legal =
  (* Encoded legal instructions cover the accept cases densely (random
     words alone hit them rarely). *)
  let gen rng =
    let r () = Prop.int ~lo:0 ~hi:31 rng in
    let i16s () = Prop.int ~lo:(-32768) ~hi:32767 rng in
    let i16u () = Prop.int ~lo:0 ~hi:65535 rng in
    let off () = Prop.int ~lo:(-64) ~hi:64 rng in
    let cmp () =
      Prop.one_of
        [ Insn.Eq; Insn.Ne; Insn.Gtu; Insn.Geu; Insn.Ltu; Insn.Leu; Insn.Gts;
          Insn.Ges; Insn.Lts; Insn.Les ]
        rng
    in
    let insn =
      match Prop.int ~lo:0 ~hi:20 rng with
      | 0 -> Insn.Add (r (), r (), r ())
      | 1 -> Insn.Sub (r (), r (), r ())
      | 2 -> Insn.Mul (r (), r (), r ())
      | 3 -> Insn.Sll (r (), r (), r ())
      | 4 -> Insn.Sra (r (), r (), r ())
      | 5 -> Insn.Addi (r (), r (), i16s ())
      | 6 -> Insn.Andi (r (), r (), i16u ())
      | 7 -> Insn.Xori (r (), r (), i16s ())
      | 8 -> Insn.Slli (r (), r (), Prop.int ~lo:0 ~hi:31 rng)
      | 9 -> Insn.Movhi (r (), i16u ())
      | 10 -> Insn.Sf (cmp (), r (), r ())
      | 11 -> Insn.Sfi (cmp (), r (), i16s ())
      | 12 -> Insn.J (off ())
      | 13 -> Insn.Jal (off ())
      | 14 -> Insn.Jr (r ())
      | 15 -> Insn.Jalr (r ())
      | 16 -> Insn.Bf (off ())
      | 17 -> Insn.Bnf (off ())
      | 18 -> Insn.Lwz (r (), i16s (), r ())
      | 19 -> Insn.Sw (i16s (), r (), r ())
      | _ -> Insn.Nop (Prop.one_of [ 0x0; 0x1; 0x10; 0x11; 0x7 ] rng)
    in
    (insn, Prop.int ~lo:0 ~hi:255 rng)
  in
  Prop.test ~cases:1000 "decode_into mirrors Encode.decode on legal encodings" gen
    (fun (insn, idx) ->
      let addr_mask = 4095 in
      let w = Encode.encode insn in
      let tab = Array.make ((idx + 1) * 4) Sfi_isa.Uop.u_unfilled in
      Sfi_isa.Uop.decode_into tab ~idx ~addr_mask w;
      match Encode.decode w with
      | None -> false (* the encoder only emits decodable words *)
      | Some insn' -> quad_of tab idx = expected_quad ~pc:(idx * 4) ~addr_mask insn')

(* ---------- random program parity sweep ---------- *)

let prop_random_program_parity =
  (* Random short programs (ALU, memory, short forward branches, an
     exit marker at the end) must retire identically. Branch targets
     stay inside the program so most runs exit; the rest watchdog —
     both outcomes must still match cycle for cycle. *)
  let gen rng =
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
  in
  Prop.test ~cases:300 "random programs retire identically" gen (fun insns ->
      let config = { Cpu.default_config with Cpu.max_cycles = 5_000 } in
      let si, _ = run_insns Cpu.Interp ~config insns in
      let sc, _ = run_insns Cpu.Auto ~config insns in
      si = sc)

let () =
  Alcotest.run "cpu_engine"
    [
      ( "parity",
        [
          Alcotest.test_case "kernels fault-free" `Quick test_kernel_parity;
          Alcotest.test_case "fault-hook stream" `Quick test_hook_stream_parity;
          Alcotest.test_case "self-modifying loop" `Quick test_selfmod_parity;
          Alcotest.test_case "store into own block" `Quick test_selfmod_store_into_own_block;
          Alcotest.test_case "trace ordering" `Quick test_trace_order_parity;
          Alcotest.test_case "illegal not traced" `Quick test_trace_illegal_not_traced;
          Alcotest.test_case "watchdog outcomes" `Quick test_watchdog_parity;
          Alcotest.test_case "watchdog mid-block" `Quick test_watchdog_mid_block;
          Alcotest.test_case "trap outcomes" `Quick test_trap_parity;
          Alcotest.test_case "fi toggle mid-block" `Quick test_fi_toggle_mid_block;
          Alcotest.test_case "campaign point" `Quick test_campaign_point_parity;
          Alcotest.test_case "interp checkpoint resumes under auto" `Quick
            test_checkpoint_interp_resumes_under_auto;
          prop_random_program_parity;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state" `Quick test_steady_state_allocation;
          Alcotest.test_case "decode_into" `Quick test_decode_into_allocation_free;
        ] );
      ( "uop decoder",
        [ prop_uop_matches_encode; prop_uop_matches_encode_legal ] );
    ]
