(* Outside-in benchmark of the model-C fault-injection pipeline.

   One process = one run of one workload. It sets up the flow (netlist,
   cold characterization, kernel builds, reference runs), then times
   whole passes over the workload's fixed point list through the public
   [Campaign.run_detailed] API. Every point's [Point_json] encoding is
   digested and checked: against the stored reference for the seed when
   there is one, against the first pass always, and against the point
   invariants. The last stdout line is one JSON object that run.py turns
   into the benchmark's result line.

   Modes:
   - [run]: end-to-end metrics, tracing off.
   - [setup]: set-up only, for run.py's median of several cold set-ups.
   - [trace]: untraced passes, one traced pass with spans and obs
     counter deltas, then in-process calibrations and the layer table.
   - [reference]: obs on, one pass, print point digests and the
     [det_signature] digest (how reference.json is produced). *)

open Sfi_util
open Sfi_sim
open Sfi_kernels
open Sfi_fi
module Json = Sfi_obs.Json

let now = Unix.gettimeofday

(* Module initialisation runs first thing in the process. *)
let t_process = now ()

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ---------- host speed ---------- *)

(* On a 2-vCPU virtual machine that shares its cores, host speed drifts
   by 10-30% within seconds and between runs, far more than the changes
   the benchmark must see.
   Every timed interval is therefore bracketed by a fixed calibration
   loop — the benchmark's own allocation-free integer code, calling
   nothing in the library, so no program change can move it — and the
   end-to-end times are rescaled to a host on which the loop takes
   [nominal_probe_s]. On that machine this cut the spread
   of 3 s blocks of campaign work from 9% to 2%. *)
let calib_buf = Array.make 4096 0

let calibration_loop () =
  let acc = ref 0 in
  for i = 0 to 1_499_999 do
    let j = (i * 2654435761) land 4095 in
    let v = Array.unsafe_get calib_buf j + (i lxor !acc) in
    Array.unsafe_set calib_buf j v;
    if v land 7 = 3 then acc := !acc + v else acc := !acc lxor j
  done;
  ignore (Sys.opaque_identity !acc : int)

let nominal_probe_s = 0.008

(* Seconds the calibration loop takes now. *)
let probe () =
  let t0 = now () in
  calibration_loop ();
  now () -. t0

(* [wall] rescaled to the nominal host, given the probes around it. *)
let normalize wall p0 p1 = wall *. nominal_probe_s /. (0.5 *. (p0 +. p1))

(* ---------- workloads ---------- *)

type group = { kernel : string; freqs : float list; policy : Spec.trials_policy }

type workload = { wname : string; groups : group list; checkpointed : bool }

let fixed n kernel freqs = { kernel; freqs; policy = Spec.Fixed n }

let adaptive kernel freqs =
  { kernel; freqs; policy = Spec.Adaptive { batch = 16; max_trials = 64; ci_target = 0.05 } }

(* The STA limit is 707 MHz at 0.7 V. README.md says why each workload
   exists, which layer it stresses, and why these points: each trial's
   cost barely depends on the seed. *)
let workloads =
  [
    {
      wname = "fault-dense";
      checkpointed = false;
      groups =
        [
          fixed 16 "median" [ 860.; 880. ];
          fixed 8 "kmeans" [ 780.; 800. ];
          fixed 4 "kmeans" [ 830. ];
          fixed 32 "dijkstra" [ 870. ];
        ];
    };
    {
      wname = "rare-fault";
      checkpointed = false;
      groups =
        [
          fixed 32 "median" [ 690.; 710.; 730.; 740. ];
          fixed 8 "kmeans" [ 690.; 710.; 720.; 730.; 740. ];
          fixed 8 "dijkstra" [ 690.; 720.; 740.; 750.; 760. ];
        ];
    };
    {
      wname = "adaptive-ckpt";
      checkpointed = true;
      groups =
        [
          adaptive "median" [ 740. ];
          adaptive "mat_mult_8bit" [ 730. ];
          adaptive "mat_mult_16bit" [ 710. ];
          adaptive "kmeans" [ 730. ];
          adaptive "dijkstra" [ 740. ];
        ];
    };
  ]

let vdd = 0.7
let sigma = 0.010

(* A quarter of the paper's 8000-cycle characterization kernel keeps a
   cold set-up near 2 s on one domain, so several can be timed per run. *)
let char_cycles = 2000

(* ---------- spans (kept in memory, written at the end) ---------- *)

type span = {
  id : int;
  parent : int;
  sname : string;
  t0 : float;
  t1 : float;
  attrs : (string * Json.t) list;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack = ref [ 0 ]

(* Times [f]; when tracing, records a span whose parent is the
   innermost open span. [attrs] sees the result. *)
let with_span ?(attrs = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> stack := List.tl !stack) f in
    let t1 = now () in
    spans := { id; parent; sname = name; t0; t1; attrs = attrs r } :: !spans;
    r
  end

let span_json s =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("parent", Json.Int s.parent);
       ("name", Json.String s.sname);
       ("start_s", Json.Float (s.t0 -. t_process));
       ("dur_s", Json.Float (s.t1 -. s.t0));
     ]
    @ s.attrs)

let span_dur name =
  List.fold_left (fun acc s -> if s.sname = name then acc +. (s.t1 -. s.t0) else acc) 0. !spans

(* ---------- obs counters ---------- *)

let counters () =
  List.filter_map
    (fun e ->
      match e.Sfi_obs.entry_value with
      | Sfi_obs.Counter_v v -> Some (e.Sfi_obs.entry_name, v)
      | _ -> None)
    (Sfi_obs.snapshot ())

let counter snap name = Option.value ~default:0 (List.assoc_opt name snap)

let sum_prefix snap prefix =
  List.fold_left
    (fun acc (n, v) -> if String.starts_with ~prefix n then acc + v else acc)
    0 snap

let counter_delta before after =
  List.filter_map
    (fun (n, v) ->
      let d = v - counter before n in
      if d <> 0 then Some (n, d) else None)
    after

let det_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, vs) ->
      Buffer.add_string b name;
      List.iter (fun v -> Buffer.add_char b ' '; Buffer.add_string b (string_of_int v)) vs;
      Buffer.add_char b '\n')
    (Sfi_obs.det_signature ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- set-up ---------- *)

type env = {
  model : Model.t;
  flow : Sfi_core.Flow.t;
  benches : (string * Bench.t) list;
  setup_s : float;  (* process start to first trial, probes excluded *)
  setup_norm_s : float;
}

let kernels w = List.sort_uniq compare (List.map (fun g -> g.kernel) w.groups)

let setup w =
  let p0 = probe () in
  let flow =
    with_span "flow.create" (fun () ->
        Sfi_core.Flow.create ~config:{ Sfi_core.Flow.default_config with char_cycles } ())
  in
  let model = with_span "timing.char" (fun () -> Sfi_core.Flow.model_c flow ~vdd ~sigma ()) in
  let benches =
    with_span "kernels.build" (fun () ->
        List.map
          (fun k ->
            match Registry.by_name k with
            | Some b -> (k, b)
            | None -> fail "unknown kernel %s" k)
          (kernels w))
  in
  with_span "campaign.reference" (fun () ->
      List.iter (fun (_, b) -> ignore (Campaign.reference_cycles b : int)) benches);
  let setup_s = now () -. t_process -. p0 in
  let p1 = probe () in
  { model; flow; benches; setup_s; setup_norm_s = normalize setup_s p0 p1 }

(* ---------- points and passes ---------- *)

type point = { group : group; freq : float }

let spec_for ~seed ~ckpt g =
  let s =
    { (Spec.default |> Spec.with_seed seed |> Spec.with_jobs 1) with Spec.trials = g.policy }
  in
  Spec.validate (match ckpt with Some p -> Spec.with_checkpoint p s | None -> s)

type result = {
  digest : string;  (* "" when the point raised *)
  ok : bool;  (* ran and passed the invariants *)
  trials : int;
  kcycles : int;
  wall : float;
  fault_free : bool;  (* proven fault-free: one run stands in for all *)
}

let point_string p = Campaign.Point_json.to_string (Campaign.Point_json.of_point p)

(* Checks that hold for every seed: the policy's trial accounting, the
   rates against the trials behind them, the Wilson interval, and the
   codec round trip. *)
let invariants g (p : Campaign.point) (trs : Campaign.trial array) =
  let n = Array.length trs in
  let count f = Array.fold_left (fun a t -> if f t then a + 1 else a) 0 trs in
  let rate k = float_of_int k /. float_of_int (max 1 n) in
  let trials_ok =
    match g.policy with
    | Spec.Fixed k -> p.trials = k && p.trials_requested = k
    | Spec.Adaptive { batch; max_trials; _ } ->
      p.trials_requested = max_trials && p.trials >= min batch max_trials
      && p.trials <= max_trials
      && (p.trials mod batch = 0 || p.trials = max_trials)
  in
  let n_ok = if p.any_fault_possible then n = p.trials else n = 1 in
  trials_ok && n_ok
  && Float.equal p.finished_rate (rate (count (fun t -> t.Campaign.finished)))
  && Float.equal p.correct_rate (rate (count (fun t -> t.Campaign.correct)))
  (* The Wilson bounds are rounded, so they may miss a rate of exactly
     0 or 1 by an ulp. *)
  && p.ci_low <= p.correct_rate +. 1e-9
  && p.correct_rate <= p.ci_high +. 1e-9
  && point_string (Campaign.Point_json.to_point (Campaign.Point_json.of_point p)) = point_string p

let run_point env ~seed ~ckpt pt =
  let bench = List.assoc pt.group.kernel env.benches in
  let spec = spec_for ~seed ~ckpt pt.group in
  let t0 = now () in
  match Campaign.run_detailed spec ~bench ~model:env.model ~freq_mhz:pt.freq with
  | p, trs ->
    let wall = now () -. t0 in
    {
      digest = Digest.to_hex (Digest.string (point_string p));
      ok = invariants pt.group p trs;
      trials = p.Campaign.trials;
      kcycles = Array.fold_left (fun a t -> a + t.Campaign.kernel_cycles) 0 trs;
      wall;
      fault_free = not p.Campaign.any_fault_possible;
    }
  | exception e ->
    Printf.eprintf "perfbench: %s@%.0f raised %s\n%!" pt.group.kernel pt.freq
      (Printexc.to_string e);
    { digest = ""; ok = false; trials = 0; kcycles = 0; wall = now () -. t0; fault_free = false }

type pass = {
  results : result array;
  pwall : float;  (* raw host seconds in [Campaign.run_detailed] *)
  nwalls : float array;  (* per point, rescaled to the nominal host *)
  probes : float array;  (* calibration loop times around the points *)
  nwall : float;
  ptrials : int;
  minor_words : float;  (* Gc.quick_stat deltas over the pass *)
  major_collections : int;
}

let remove_if_exists p = if Sys.file_exists p then Sys.remove p

(* One pass over the workload's points, with a calibration probe
   before the first and after every point. A checkpointed workload
   starts every pass from an empty file, so each pass does the same
   work ([~fresh:false] resumes from the file instead). [around_group]
   and [around] wrap each kernel group and each point (spans, counter
   deltas). *)
let run_pass ?(around_group = fun _ f -> f ()) ?(around = fun _ f -> f ()) ?(fresh = true) env w
    ~seed ~ckpt =
  if fresh then Option.iter remove_if_exists ckpt;
  let gc0 = Gc.quick_stat () in
  let p0 = probe () in
  let timed =
    List.concat_map
      (fun g ->
        around_group g (fun () ->
            List.map
              (fun freq ->
                let pt = { group = g; freq } in
                let r = around pt (fun () -> run_point env ~seed ~ckpt pt) in
                (r, probe ()))
              g.freqs))
      w.groups
  in
  let gc1 = Gc.quick_stat () in
  let results = Array.of_list (List.map fst timed) in
  let probes = Array.of_list (p0 :: List.map snd timed) in
  let nwalls = Array.mapi (fun i r -> normalize r.wall probes.(i) probes.(i + 1)) results in
  {
    results;
    pwall = Array.fold_left (fun a r -> a +. r.wall) 0. results;
    nwalls;
    probes;
    nwall = Array.fold_left ( +. ) 0. nwalls;
    ptrials = Array.fold_left (fun a r -> a + r.trials) 0 results;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Runs whole passes while another one is expected to fit in [seconds]
   (at least one). *)
let measure env w ~seed ~ckpt ~seconds =
  let t0 = now () in
  let rec go acc =
    let p = run_pass env w ~seed ~ckpt in
    let acc = p :: acc in
    let est = median (List.map (fun p -> p.pwall) acc) in
    if now () -. t0 +. est <= seconds then go acc else List.rev acc
  in
  go []

(* ---------- correctness ---------- *)

type verdict = { attempted : int; failed : int; digests : string array }

(* Every point of every pass must satisfy the invariants and reproduce
   the first pass; with a stored reference, the first pass must match
   it too. *)
let check ~reference passes =
  let first = (List.hd passes).results in
  let digests = Array.map (fun r -> r.digest) first in
  let expected i = match reference with Some ds -> ds.(i) | None -> digests.(i) in
  (match reference with
  | Some ds when Array.length ds <> Array.length digests ->
    fail "reference holds %d points, workload has %d" (Array.length ds) (Array.length digests)
  | _ -> ());
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun i r ->
          incr attempted;
          if not (r.ok && r.digest = expected i) then begin
            incr failed;
            Printf.eprintf "perfbench: point %d failed (%s, invariants %b)\n%!" i r.digest r.ok
          end)
        p.results)
    passes;
  { attempted = !attempted; failed = !failed; digests }

let load_reference path ~workload ~seed =
  if not (Sys.file_exists path) then fail "missing reference file %s" path;
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  let ( >>= ) = Option.bind in
  match
    Json.member "workloads" j >>= Json.member workload >>= Json.member (string_of_int seed)
  with
  | None -> None
  | Some e ->
    let points =
      match Json.member "points" e with
      | Some (Json.List l) -> Array.of_list (List.filter_map Json.to_string_opt l)
      | _ -> fail "reference entry for %s seed %d has no points" workload seed
    in
    Some (points, Json.member "det_signature" e >>= Json.to_string_opt)

(* ---------- calibrations (trace mode) ---------- *)

(* Injectors the calibrations build stay out of the obs counters. *)
let injector env freq rng = Injector.create ~count_obs:false ~model:env.model ~freq_mhz:freq ~rng ()

(* Median nominal-host ns per operation of [f n] over [reps]
   repetitions, each bracketed by calibration probes. *)
let ns_per_op ?(reps = 5) n f =
  median
    (List.init reps (fun _ ->
         let p0 = probe () in
         let t0 = now () in
         f n;
         let wall = now () -. t0 in
         normalize wall p0 (probe ()) *. 1e9 /. float_of_int n))

(* Per-trial campaign bookkeeping outside the ISS and the hook: loading
   a fresh image and instantiating the injector. *)
let trial_setup_ns env bench =
  ns_per_op 200 (fun n ->
      for i = 1 to n do
        let mem = Bench.fresh_memory bench in
        let inj = injector env 800. (Rng.of_int i) in
        ignore (Sys.opaque_identity (Injector.trial_start inj mem))
      done)

let rng_ns () =
  let rng = Rng.of_int 7 in
  let per_draw draw =
    ns_per_op 200_000 (fun n ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (draw rng : float))
        done)
  in
  (per_draw Rng.gaussian, per_draw Rng.float)

(* [Cdf.prob_greater] over the model's own endpoint CDFs at thresholds
   spread across each CDF's range. *)
let cdf_ns env =
  let db = Sfi_core.Flow.char_db env.flow ~vdd in
  let cdfs =
    Array.concat
      (List.map
         (fun c -> c.Sfi_timing.Characterize.endpoint_cdfs)
         (Array.to_list db.Sfi_timing.Characterize.classes))
  in
  let rng = Rng.of_int 11 in
  let qs =
    Array.init 4096 (fun _ ->
        let c = cdfs.(Rng.int rng (Array.length cdfs)) in
        let lo = Sfi_timing.Cdf.min_value c and hi = Sfi_timing.Cdf.max_value c in
        (c, lo +. (Rng.float rng *. (hi -. lo))))
  in
  ns_per_op 400_000 (fun n ->
      for i = 0 to n - 1 do
        let c, x = qs.(i land 4095) in
        ignore (Sys.opaque_identity (Sfi_timing.Cdf.prob_greater c x))
      done)

(* Host ns per kernel cycle of a fault-free run with no hook. *)
let iss_ns bench =
  let kc = ref 1 in
  let ns =
    ns_per_op 1 (fun _ ->
        let st, _ = Bench.run_fault_free bench in
        kc := max 1 st.Cpu.kernel_cycles)
  in
  ns /. float_of_int !kc

(* The ALU op stream one trial feeds the fault hook, cut at [cap_cycles]
   by the watchdog. *)
type ops = {
  cyc : int array;
  cls : Op_class.t array;
  a : int array;
  b : int array;
  res : int array;
}

let cap_cycles = 200_000

let record_ops env bench freq ~seed =
  let inj = injector env freq (Rng.of_int seed) in
  let h = Injector.hook inj in
  let acc = ref [] in
  let hook ~cycle ~cls ~a ~b ~result =
    acc := (cycle, cls, a, b, result) :: !acc;
    h ~cycle ~cls ~a ~b ~result
  in
  let mem = Bench.fresh_memory bench in
  ignore (Injector.trial_start inj mem : int);
  let config = { Cpu.default_config with Cpu.max_cycles = cap_cycles; fault_hook = Some hook } in
  ignore (Cpu.run ~config mem ~entry:bench.Bench.program.Sfi_isa.Program.entry : Cpu.stats);
  let l = Array.of_list (List.rev !acc) in
  {
    cyc = Array.map (fun (c, _, _, _, _) -> c) l;
    cls = Array.map (fun (_, k, _, _, _) -> k) l;
    a = Array.map (fun (_, _, a, _, _) -> a) l;
    b = Array.map (fun (_, _, _, b, _) -> b) l;
    res = Array.map (fun (_, _, _, _, r) -> r) l;
  }

(* Median ns per [Injector.hook] call over the recorded stream, each
   repetition on a fresh injector with the recording's RNG seed, so the
   replay takes the recording's fault decisions. *)
let hook_ns env ops freq ~seed =
  let n = Array.length ops.cyc in
  if n = 0 then 0.
  else
    ns_per_op ~reps:3 n (fun n ->
        let h = Injector.hook (injector env freq (Rng.of_int seed)) in
        for i = 0 to n - 1 do
          let mask =
            h ~cycle:ops.cyc.(i) ~cls:ops.cls.(i) ~a:ops.a.(i) ~b:ops.b.(i) ~result:ops.res.(i)
          in
          ignore (Sys.opaque_identity mask)
        done)

(* Raw 64-bit draws one hook call takes from its RNG, found by stepping
   a copy of the pre-call state until it meets the post-call state. *)
let raw_draws before after =
  let same x y = Int64.equal (Rng.int64 (Rng.copy x)) (Rng.int64 (Rng.copy y)) in
  let c = Rng.copy before in
  let rec go k =
    if same c after || k > 4096 then k
    else begin
      ignore (Rng.int64 c : int64);
      go (k + 1)
    end
  in
  go 0

(* Uniform draws beyond the per-call noise sample, per hook call. Each
   call not proven fault-free draws one gaussian (Box-Muller: two raw
   draws every other call); every further raw draw is a Bernoulli
   [Rng.float] taken after a [Cdf.prob_greater] with 0 < p < 1. So this
   is a lower bound on [prob_greater] calls: p = 1 calls draw nothing. *)
let bernoulli_per_call env ops freq ~seed =
  let n = Array.length ops.cyc in
  if n = 0 then 0.
  else begin
    let rng = Rng.of_int seed in
    let inj = injector env freq rng in
    let h = Injector.hook inj in
    let draws_gauss = not (Injector.cannot_inject inj) in
    let spare = ref false and extra = ref 0 in
    for i = 0 to n - 1 do
      let before = Rng.copy rng in
      ignore (h ~cycle:ops.cyc.(i) ~cls:ops.cls.(i) ~a:ops.a.(i) ~b:ops.b.(i) ~result:ops.res.(i));
      let g =
        if not draws_gauss then 0
        else begin
          let g = if !spare then 0 else 2 in
          spare := not !spare;
          g
        end
      in
      extra := !extra + max 0 (raw_draws before rng - g)
    done;
    float_of_int !extra /. float_of_int n
  end

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> fail "no VmHWM in /proc/self/status"
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> l
          | Some _ -> go ()
        in
        go ())
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* ---------- output ---------- *)

let config_json w ~seed ~jobs =
  Json.Obj
    [
      ("workload", Json.String w.wname);
      ("seed", Json.Int seed);
      ("jobs", Json.Int jobs);
      ("cpu_engine", Json.String (Cpu.engine_name Cpu.Auto ^ "->compiled"));
      ( "fastforward",
        Json.String (if Spec.resolve_fastforward Spec.Auto then "auto->on" else "auto->off") );
      ("cache", Json.String (Option.value ~default:"off" (Sfi_cache.dir ())));
      ("obs", Json.Bool (Sfi_obs.enabled ()));
      ("char_cycles", Json.Int char_cycles);
      ( "policies",
        Json.List
          (List.map
             (fun g ->
               Json.String (g.kernel ^ ":" ^ Spec.policy_to_string g.policy))
             w.groups) );
    ]

let emit ~correct ~attempted ~failed ~metrics extra =
  print_endline
    (Json.to_string
       (Json.Obj
          ([
             ("correct", Json.Bool correct);
             ("attempted", Json.Int attempted);
             ("failed", Json.Int failed);
             ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
           ]
          @ extra)))

let digests_json ds = Json.List (Array.to_list (Array.map (fun d -> Json.String d) ds))

(* ---------- modes ---------- *)

let mode_run w env ~seed ~ckpt ~seconds ~reference =
  let passes = measure env w ~seed ~ckpt ~seconds in
  let v = check ~reference:(Option.map fst reference) passes in
  let rate = median (List.map (fun p -> float_of_int p.ptrials /. p.nwall) passes) in
  (* The fault-free kernels must reproduce their golden outputs. *)
  let invalid =
    List.length
      (List.filter
         (fun (_, b) -> match Bench.validate b with _ -> false | exception Failure _ -> true)
         env.benches)
  in
  let failed = v.failed + invalid in
  emit ~correct:(failed = 0) ~attempted:(v.attempted + List.length env.benches) ~failed
    ~metrics:
      [ ("trials_per_s", rate); ("setup_s", env.setup_norm_s); ("peak_rss_mb", peak_rss_mb ()) ]
    [
      ("passes", Json.Int (List.length passes));
      ("pass_s", Json.List (List.map (fun p -> Json.Float p.pwall) passes));
      ("pass_norm_s", Json.List (List.map (fun p -> Json.Float p.nwall) passes));
      ("setup_raw_s", Json.Float env.setup_s);
      ( "probe_s",
        Json.List
          (List.map
             (fun p -> Json.List (Array.to_list (Array.map (fun x -> Json.Float x) p.probes)))
             passes) );
      ( "point_s",
        Json.List
          (List.map
             (fun p -> Json.List (Array.to_list (Array.map (fun r -> Json.Float r.wall) p.results)))
             passes) );
      ("digests", digests_json v.digests);
      ("reference", Json.Bool (reference <> None));
    ]

let mode_reference w env ~seed ~ckpt =
  let p = run_pass env w ~seed ~ckpt in
  let v = check ~reference:None [ p ] in
  emit ~correct:(v.failed = 0) ~attempted:v.attempted ~failed:v.failed ~metrics:[]
    [ ("digests", digests_json v.digests); ("det_signature", Json.String (det_digest ())) ]

let percentile xs q =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let mode_trace w env ~seed ~ckpt ~seconds ~reference ~out ~tmp =
  let setup_counters = counters () in
  (* Untraced passes for half the time: the baseline for
     trace.overhead_x, per-point latencies and the GC deltas. *)
  Sfi_obs.set_enabled false;
  let passes = measure env w ~seed ~ckpt ~seconds:(seconds /. 2.) in
  let last = List.nth passes (List.length passes - 1) in
  (* The traced pass: spans workload -> kernel -> point, each point
     span around its [Campaign.run_detailed] call and carrying the obs
     counter deltas taken around it (one domain, so the points are
     quiescent boundaries). *)
  Sfi_obs.set_enabled true;
  let per_point = ref [] in
  let around_group g f =
    with_span
      ~attrs:(fun _ -> [ ("policy", Json.String (Spec.policy_to_string g.policy)) ])
      ("kernel." ^ g.kernel) f
  in
  let around pt f =
    let before = counters () and delta = ref [] in
    let r =
      with_span
        ~attrs:(fun r ->
          delta := counter_delta before (counters ());
          [
            ("freq_mhz", Json.Float pt.freq);
            ("trials", Json.Int r.trials);
            ("digest", Json.String r.digest);
            ("counters", Json.Obj (List.map (fun (n, d) -> (n, Json.Int d)) !delta));
          ])
        "point" f
    in
    per_point := (pt, r, !delta) :: !per_point;
    r
  in
  let before_pass = counters () in
  let traced =
    with_span ~attrs:(fun _ -> [ ("seed", Json.Int seed) ]) ("workload." ^ w.wname) (fun () ->
        run_pass ~around_group ~around env w ~seed ~ckpt)
  in
  let pass_counters = counter_delta before_pass (counters ()) in
  let run_counters = counters () in
  let det = det_digest () in
  let per_point = List.rev !per_point in
  (* The sweep's checkpoint: the traced pass's own on a checkpointed
     workload; the fixed workloads run without one, so an extra
     untimed pass writes it. Resuming the finished sweep from it must
     reproduce the traced pass bit for bit. *)
  let ckpt_path, ckpt_counters =
    match ckpt with
    | Some p -> (p, pass_counters)
    | None ->
      let p = Filename.concat tmp "sweep.ckpt" in
      let before = counters () in
      let write () = run_pass env w ~seed ~ckpt:(Some p) in
      ignore (with_span "checkpoint.write_pass" write : pass);
      (p, counter_delta before (counters ()))
  in
  Sfi_obs.set_enabled false;
  let ckpt_bytes = (Unix.stat ckpt_path).Unix.st_size in
  let resumed =
    with_span "checkpoint.resume" (fun () ->
        run_pass ~fresh:false env w ~seed ~ckpt:(Some ckpt_path))
  in
  (* Calibrations, in this process, in nominal-host ns. *)
  let calib name f = with_span ("calibrate." ^ name) f in
  let gauss_ns, float_ns = calib "rng" rng_ns in
  let pg_ns = calib "cdf" (fun () -> cdf_ns env) in
  let iss = calib "iss" (fun () -> List.map (fun (k, b) -> (k, iss_ns b)) env.benches) in
  let tsetup =
    calib "trial_setup" (fun () -> List.map (fun (k, b) -> (k, trial_setup_ns env b)) env.benches)
  in
  let hooks =
    calib "hook" (fun () ->
        List.map
          (fun (pt, r, d) ->
            let calls = sum_prefix d "injector.attempts." in
            if calls = 0 || r.fault_free then (pt, r, 0, 0., 0.)
            else begin
              let bench = List.assoc pt.group.kernel env.benches in
              let ops = record_ops env bench pt.freq ~seed in
              let bern = bernoulli_per_call env ops pt.freq ~seed in
              (pt, r, calls, hook_ns env ops pt.freq ~seed, bern)
            end)
          per_point)
  in
  (* The layer table, in nominal-host seconds: count x calibrated cost
     per row, and the residual that makes it sum to the traced wall. *)
  let sumf f = List.fold_left (fun a x -> a +. f x) 0. hooks in
  let hook_calls = List.fold_left (fun a (_, _, c, _, _) -> a + c) 0 hooks in
  let cdf_calls = sumf (fun (_, _, c, _, bern) -> float_of_int c *. bern) in
  let kcycles = List.fold_left (fun a (_, r, _, _, _) -> a + r.kcycles) 0 hooks in
  let kernel_cost tbl pt = List.assoc pt.group.kernel tbl in
  let iss_s = sumf (fun (pt, r, _, _, _) -> float_of_int r.kcycles *. kernel_cost iss pt) *. 1e-9 in
  let sim_ns = iss_s *. 1e9 /. float_of_int (max 1 kcycles) in
  let hook_total_s = sumf (fun (_, _, c, ns, _) -> float_of_int c *. ns) *. 1e-9 in
  let rng_s = ((float_of_int hook_calls *. gauss_ns) +. (cdf_calls *. float_ns)) *. 1e-9 in
  let cdf_s = cdf_calls *. pg_ns *. 1e-9 in
  let hook_s = hook_total_s -. rng_s -. cdf_s in
  (* Campaign I/O and bookkeeping: per point, what a resume from the
     checkpoint costs (load, record keys, aggregation, no trials) on the
     checkpointed workload; per trial, the image load and injector set-up. *)
  let io_s =
    (if ckpt = None then 0. else resumed.nwall)
    +. sumf (fun (pt, r, _, _, _) ->
           float_of_int (if r.fault_free then 1 else r.trials) *. kernel_cost tsetup pt *. 1e-9)
  in
  let sweep_s = traced.nwall in
  let residual_s = sweep_s -. iss_s -. hook_s -. rng_s -. cdf_s -. io_s in
  let untraced_s = median (List.map (fun p -> p.nwall) passes) in
  let point_walls = List.concat_map (fun p -> Array.to_list p.nwalls) passes in
  (* Correctness: every pass as in run mode, the resume, and the det
     signature against its reference when the seed has one. *)
  let v = check ~reference:(Option.map fst reference) (passes @ [ traced; resumed ]) in
  let det_checked, det_ok =
    match reference with Some (_, Some d) -> (1, d = det) | _ -> (0, true)
  in
  let failed = v.failed + if det_ok then 0 else 1 in
  Out_channel.with_open_text out (fun oc ->
      List.iter
        (fun s -> output_string oc (Json.to_string (span_json s) ^ "\n"))
        (List.rev !spans));
  let c name = float_of_int (counter run_counters name) in
  let p name = float_of_int (counter pass_counters name) in
  let k name = float_of_int (counter ckpt_counters name) in
  let s name = float_of_int (counter setup_counters name) in
  let setup_scale = env.setup_norm_s /. env.setup_s in
  let setup_span name = span_dur name *. setup_scale in
  emit ~correct:(failed = 0) ~attempted:(v.attempted + det_checked) ~failed
    ~metrics:
      [
        ("flow.create_s", setup_span "flow.create");
        ("timing.char_s", setup_span "timing.char");
        ("dta.events", s "dta.events");
        ("bitsim.lane_events", s "bitsim.lane_events");
        ("kernels.build_s", setup_span "kernels.build");
        ("campaign.reference_s", setup_span "campaign.reference");
        ("sim.ns_per_cycle", sim_ns);
        ("sim.kernel_mcycles", float_of_int kcycles /. 1e6);
        ("cpu.block_hits", p "cpu.block_hits");
        ("cpu.invalidations", p "cpu.invalidations");
        ("cpu.fallbacks", p "cpu.fallbacks");
        ("fi.hook_calls", float_of_int hook_calls);
        ("fi.faults", p "injector.faults.C");
        ("fi.hook_ns", hook_total_s *. 1e9 /. float_of_int (max 1 hook_calls));
        ("fi.overhead_x", untraced_s *. 1e9 /. float_of_int (max 1 kcycles) /. sim_ns);
        ("rng.gaussian_ns", gauss_ns);
        ("rng.float_ns", float_ns);
        ("cdf.prob_greater_ns", pg_ns);
        ("cdf.calls", cdf_calls);
        ("gc.minor_words_per_trial", last.minor_words /. float_of_int last.ptrials);
        ("gc.major_collections", float_of_int last.major_collections);
        ("campaign.point_p50_s", percentile point_walls 0.5);
        ("campaign.point_p90_s", percentile point_walls 0.9);
        ("campaign.point_samples", float_of_int (List.length point_walls));
        ("campaign.batches", p "campaign.batches");
        ("campaign.early_stops", p "campaign.early_stops");
        ("checkpoint.records_written", k "checkpoint.records_written");
        ("checkpoint.bytes", float_of_int ckpt_bytes);
        ("checkpoint.resume_s", resumed.nwall);
        ("cache.stores", c "cache.stores");
        ("fastforward.trials_elided", p "fastforward.trials_elided");
        ("fastforward.cycles_elided", p "fastforward.cycles_elided");
        ("layer.iss_s", iss_s);
        ("layer.hook_s", hook_s);
        ("layer.rng_s", rng_s);
        ("layer.cdf_s", cdf_s);
        ("layer.campaign_io_s", io_s);
        ("layer.residual_s", residual_s);
        ("layer.sweep_wall_s", sweep_s);
        ("trace.overhead_x", sweep_s /. untraced_s);
      ]
    [
      ("digests", digests_json v.digests);
      ("det_signature", Json.String det);
      ("reference", Json.Bool (reference <> None));
      ("det_signature_checked", Json.Bool (det_checked = 1));
      ("spans", Json.String out);
    ]

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and mode = ref "run"
  and tmp = ref "" and reference = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N campaign root seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--mode", Arg.Set_string mode, "run|setup|trace|reference");
      ("--tmp", Arg.Set_string tmp, "DIR private scratch directory (cache, checkpoint)");
      ("--reference", Arg.Set_string reference, "FILE stored point digests");
      ("--out", Arg.Set_string out, "FILE span output (trace mode)");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --mode MODE --tmp DIR --reference FILE";
  (* Hermetic: the library reads SFI_* variables silently, so refuse
     any that leak in rather than run a different configuration. *)
  Array.iter
    (fun kv -> if String.starts_with ~prefix:"SFI_" kv then fail "refusing inherited %s" kv)
    (Unix.environment ());
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None -> fail "unknown workload %S" !workload
  in
  if !tmp = "" || not (Sys.file_exists !tmp) then fail "--tmp must name an existing directory";
  let cache = Filename.concat !tmp "cache" in
  if Sys.file_exists cache then fail "cache %s exists; every run starts cold" cache;
  Pool.set_default_jobs 1;
  Sfi_obs.set_enabled (!mode = "trace" || !mode = "reference");
  Sfi_cache.set_dir (Some cache);
  Cpu.set_default_engine Cpu.Auto;
  let ckpt = if w.checkpointed then Some (Filename.concat !tmp "campaign.ckpt") else None in
  tracing := !mode = "trace";
  let env = with_span "setup" (fun () -> setup w) in
  let reference () =
    if !reference = "" then None else load_reference !reference ~workload:w.wname ~seed:!seed
  in
  let config = config_json w ~seed:!seed ~jobs:(Pool.default_jobs ()) in
  prerr_endline ("perfbench: config " ^ Json.to_string config);
  match !mode with
  | "setup" ->
    emit ~correct:true ~attempted:1 ~failed:0 ~metrics:[ ("setup_s", env.setup_norm_s) ]
      [ ("setup_raw_s", Json.Float env.setup_s) ]
  | "run" -> mode_run w env ~seed:!seed ~ckpt ~seconds:!seconds ~reference:(reference ())
  | "reference" -> mode_reference w env ~seed:!seed ~ckpt
  | "trace" ->
    if !out = "" then fail "--out is required in trace mode";
    mode_trace w env ~seed:!seed ~ckpt ~seconds:!seconds ~reference:(reference ()) ~out:!out
      ~tmp:!tmp
  | m -> fail "unknown mode %S" m
