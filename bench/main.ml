(* Production-vs-reference gates.

   Each hot layer has one production path and a slow reference kept for
   differential testing. This executable runs each production path
   against its reference on a small fixed input, fails (non-zero exit)
   if the results differ or the production path loses its speed margin,
   and prints one line per check:

     dune build @bench-smoke

   - packed vs scalar characterization: Marshal-equal databases, packed
     not slower;
   - compiled ISS vs interpreter: equal stats and outputs, compiled not
     slower;
   - serial vs parallel sweep: jobs=1 and jobs=N give equal points and
     equal det:true observability deltas;
   - fast-forward vs full replay: equal points, fast-forward >= 2x.

   The paper's tables and figures are regenerated by `sfi experiments`;
   end-to-end, layer-attributed speed is measured by `perfbench/`. *)

open Sfi_util
open Sfi_core

let speedup ~reference ~production = reference /. Float.max 1e-9 production

(* ---------- characterization kernels: scalar vs packed ---------- *)

(* The same characterization on the scalar oracle and on the production
   packed kernel, serially, timed. Caching stays off, so the packed run
   computes its database instead of loading a stored one. *)
let kernel_compare ~cycles () =
  Sfi_cache.set_dir None;
  (* A clean heap for a clean measurement: the comparison runs first
     (and compacts away whatever setup allocated), so GC pressure from
     unrelated fixtures cannot skew the engine-vs-engine ratio. *)
  Gc.compact ();
  let alu = Flow.alu (Flow.create ()) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let db = f () in
    (db, Unix.gettimeofday () -. t0)
  in
  let sdb, scalar_wall_s =
    timed (fun () -> Sfi_oracle.Scalar_characterize.run ~cycles ~vdd:0.7 alu)
  in
  let spec = Spec.(default |> with_jobs 1) in
  let pdb, packed_wall_s =
    timed (fun () -> Sfi_timing.Characterize.run ~cycles ~spec ~vdd:0.7 alu)
  in
  if Marshal.to_string sdb [] <> Marshal.to_string pdb [] then
    failwith "kernel compare: packed database differs from scalar";
  let x = speedup ~reference:scalar_wall_s ~production:packed_wall_s in
  Printf.printf
    "kernel compare: %d cycles/class, scalar %.2f s, packed %.2f s (%.2fx), \
     databases bit-identical\n%!"
    cycles scalar_wall_s packed_wall_s x;
  if x < 1.0 then failwith "kernel compare: packed engine slower than scalar"

(* ---------- ISS engines: interpreter vs compiled basic blocks ---------- *)

(* The same fault-free kernel run on both ISS engines, timed. The full
   stats records and outputs must be equal: the compiled engine is
   cycle-for-cycle bit-identical by contract, so any divergence here is
   a hard failure, not a measurement artifact. Wall times are best-of-3
   over rep blocks sized to ~20 M instructions so a stray scheduler
   hiccup cannot flip the gate. The upfront compact keeps garbage left
   by the previous check out of the compiled engine's timed window (it
   allocates at block-compile time, unlike the interpreter). *)
let iss_compare () =
  let module C = Sfi_sim.Cpu in
  Gc.compact ();
  let bench = Sfi_kernels.Median.create ~n:129 () in
  let run engine = Sfi_kernels.Bench.run_fault_free ~engine bench in
  let istats, iout = run C.Interp in
  let cstats, cout = run C.Auto in
  if istats <> cstats || iout <> cout then
    failwith "iss compare: compiled engine diverged from the interpreter";
  let insns = istats.C.instret in
  let reps = max 1 (20_000_000 / max 1 insns) in
  let time engine =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        ignore (run engine : C.stats * U32.t array)
      done;
      let w = Unix.gettimeofday () -. t0 in
      if w < !best then best := w
    done;
    !best /. float_of_int reps
  in
  let interp_wall_s = time C.Interp in
  let compiled_wall_s = time C.Auto in
  let minsns wall = float_of_int insns /. Float.max 1e-9 wall /. 1e6 in
  let x = speedup ~reference:interp_wall_s ~production:compiled_wall_s in
  Printf.printf
    "iss compare: %d insns/run x %d reps, interp %.2f Minsns/s, compiled %.2f \
     Minsns/s (%.2fx), stats bit-identical\n%!"
    insns reps (minsns interp_wall_s) (minsns compiled_wall_s) x;
  if x < 1.0 then failwith "iss compare: compiled engine slower than the interpreter"

(* ---------- parallel smoke: serial vs pooled sweep ---------- *)

(* Bit-identity through the versioned codec: the sfi-point/1 writer
   round-trips doubles exactly (nan as null), so equal strings mean equal
   points — one comparison shared with the golden tests instead of a
   hand-maintained field list. *)
let points_equal a b =
  let render pts =
    Sfi_fi.Campaign.Point_json.to_string (Sfi_fi.Campaign.Point_json.of_sweep pts)
  in
  render a = render b

(* Deterministic obs fingerprint of a region: counters and histograms are
   cumulative, so subtract the before-snapshot name by name. Spans and
   ~det:false metrics are excluded, same as [Sfi_obs.det_signature]. *)
let det_obs_delta before after =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace tbl e.Sfi_obs.entry_name e.Sfi_obs.entry_value)
    before;
  List.filter_map
    (fun e ->
      if not e.Sfi_obs.entry_det then None
      else
        let prev = Hashtbl.find_opt tbl e.Sfi_obs.entry_name in
        match (e.Sfi_obs.entry_value, prev) with
        | Sfi_obs.Counter_v v, Some (Sfi_obs.Counter_v v0) ->
          Some (e.Sfi_obs.entry_name, [ v - v0 ])
        | Sfi_obs.Counter_v v, _ -> Some (e.Sfi_obs.entry_name, [ v ])
        | Sfi_obs.Hist_v h, prev ->
          let c0, s0, b0 =
            match prev with
            | Some (Sfi_obs.Hist_v h0) -> (h0.count, h0.sum, h0.buckets)
            | _ -> (0, 0, [])
          in
          let pairs =
            h.buckets
            |> List.map (fun (b, c) ->
                   (b, c - Option.value ~default:0 (List.assoc_opt b b0)))
            |> List.filter (fun (_, c) -> c <> 0)
            |> List.concat_map (fun (b, c) -> [ b; c ])
          in
          Some (e.Sfi_obs.entry_name, (h.count - c0) :: (h.sum - s0) :: pairs)
        | Sfi_obs.Span_v _, _ -> None)
    after

(* One fast model-C sweep run twice — jobs = 1 then jobs = default — to
   assert the determinism contract end to end. *)
let parallel_smoke () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench = Sfi_kernels.Median.create ~n:17 () in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freqs = List.map (fun r -> fsta *. r) [ 1.02; 1.10; 1.18; 1.26 ] in
  let trials = 8 in
  let run jobs =
    let spec =
      Sfi_fi.Campaign.Spec.(default |> with_trials trials |> with_jobs jobs)
    in
    let t0 = Unix.gettimeofday () in
    let pts = Sfi_fi.Campaign.run_sweep spec ~bench ~model ~freqs_mhz:freqs in
    (pts, Unix.gettimeofday () -. t0)
  in
  ignore (run 1) (* warm the reference-cycle cache out of the timed region *);
  let obs_start = Sfi_obs.snapshot () in
  let serial_pts, serial_wall_s = run 1 in
  let obs_mid = Sfi_obs.snapshot () in
  let serial_obs = det_obs_delta obs_start obs_mid in
  let jobs = Pool.default_jobs () in
  let parallel_pts, parallel_wall_s = run jobs in
  let parallel_obs = det_obs_delta obs_mid (Sfi_obs.snapshot ()) in
  if not (points_equal serial_pts parallel_pts) then
    failwith "parallel smoke: jobs=1 and jobs=N produced different points";
  if serial_obs <> parallel_obs then
    failwith "parallel smoke: obs det counters diverged between jobs=1 and jobs=N";
  Printf.printf
    "parallel smoke: %d points x %d trials, serial %.2f s, %d job(s) %.2f s (%.2fx), \
     results bit-identical\n%!"
    (List.length freqs) trials serial_wall_s jobs parallel_wall_s
    (speedup ~reference:serial_wall_s ~production:parallel_wall_s)

(* ---------- fast-forward vs full replay ---------- *)

(* The snapshot fast-forward payoff, measured where it matters: a
   model-C k-means point just past the provable no-fault region, where
   most trials are fault-free and full replay burns its time proving
   that one ISS run at a time. The analytic first-fault sampler elides
   those trials outright; the rest restore a snapshot and simulate only
   the suffix. Bit-identity is asserted through the same sfi-point/1
   rendering the golden tests use; recording and reference-cycle costs
   are warmed out of the timed region (they are one-time and cached). *)
let fastforward_compare () =
  let flow = Flow.create ~config:{ Flow.default_config with Flow.char_cycles = 400 } () in
  let bench =
    match Sfi_kernels.Registry.by_name "kmeans" with
    | Some b -> b
    | None -> failwith "fastforward compare: kmeans not in registry"
  in
  let fsta = Flow.sta_limit_mhz flow ~vdd:0.7 in
  let model = Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let ref_cycles = Sfi_fi.Campaign.reference_cycles bench in
  (match
     Sfi_fi.Fastforward.trace_for ~bench
       ~stride:(Sfi_fi.Fastforward.stride_for ~ref_cycles)
   with
  | Some _ -> ()
  | None -> failwith "fastforward compare: kmeans reference run did not exit");
  (* The rare-fault operating point: just past the injector's provable
     no-fault boundary, which bisection pins to a fraction of a MHz.
     kmeans fires tens of thousands of hooks per run, so even here only
     ~3 in 4 trials stay fault-free — any higher and nearly every trial
     faults, erasing the regime this comparison is about. *)
  let freq_mhz =
    let cannot f =
      Sfi_fi.Injector.cannot_inject
        (Sfi_fi.Injector.create ~count_obs:false ~model ~freq_mhz:f
           ~rng:(Rng.of_int 1) ())
    in
    let lo = ref (fsta *. 0.9) and hi = ref (fsta *. 1.1) in
    for _ = 1 to 40 do
      let mid = 0.5 *. (!lo +. !hi) in
      if cannot mid then lo := mid else hi := mid
    done;
    !hi *. 1.0002
  in
  let trials = 24 in
  let module Spec = Sfi_fi.Campaign.Spec in
  (* One worker on both sides: this compares elision against full
     replay, and domain-scheduling overhead on small hosts would only
     add the same noise to both walls (the pool has its own smoke). *)
  let run mode =
    let spec =
      Spec.(
        default |> with_trials trials |> with_seed 2 |> with_jobs 1
        |> with_fastforward mode)
    in
    let t0 = Unix.gettimeofday () in
    let p = Sfi_fi.Campaign.run spec ~bench ~model ~freq_mhz in
    (p, Unix.gettimeofday () -. t0)
  in
  (* Best-of-3 walls, like the ISS compare: runs are deterministic, so
     any rep disagreeing is a hard failure and the work counters divide
     exactly by the rep count. *)
  Gc.compact ();
  let reps = 3 in
  let best mode =
    let p = ref None and best = ref infinity in
    for _ = 1 to reps do
      let q, w = run mode in
      (match !p with
      | None -> p := Some q
      | Some p0 ->
        if not (points_equal [ p0 ] [ q ]) then
          failwith "fastforward compare: repeated run diverged");
      if w < !best then best := w
    done;
    (Option.get !p, !best)
  in
  let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided" in
  let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores" in
  let e0 = Sfi_obs.Counter.value c_elided in
  let r0 = Sfi_obs.Counter.value c_restores in
  let p_full, full_wall_s = best Spec.Off in
  let p_ff, ff_wall_s = best Spec.Auto in
  if not (points_equal [ p_full ] [ p_ff ]) then
    failwith "fastforward compare: fast-forwarded point differs from full replay";
  let x = speedup ~reference:full_wall_s ~production:ff_wall_s in
  Printf.printf
    "fastforward compare: kmeans x %d trials at %.0f MHz, full replay %.2f s, \
     fast-forward %.2f s (%.2fx; %d elided, %d suffix restores), results \
     bit-identical\n%!"
    trials freq_mhz full_wall_s ff_wall_s x
    ((Sfi_obs.Counter.value c_elided - e0) / reps)
    ((Sfi_obs.Counter.value c_restores - r0) / reps);
  if x < 2.0 then
    failwith "fastforward compare: less than 2x faster than full replay"

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "bench/main.exe takes no arguments; use `sfi experiments [IDS]` to \
       regenerate the paper's tables and figures";
    exit 2
  end;
  (* Instrumented, so the parallel smoke can compare det:true deltas and
     the fast-forward line can report elisions. *)
  Sfi_obs.set_enabled true;
  (* Kernels first: the scalar-vs-packed ratio is measured on a fresh
     process heap. *)
  kernel_compare ~cycles:600 ();
  iss_compare ();
  parallel_smoke ();
  fastforward_compare ()
