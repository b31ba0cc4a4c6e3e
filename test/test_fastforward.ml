(* Snapshot fast-forward: the bit-identity contract and the sfi-snap/1
   cache codec.

   - every registry kernel, under both CPU engines, produces the same
     campaign point (sfi-point/1 JSON) and deterministic obs signature
     under full replay (Off) and fast-forward (Auto);
   - mostly-fault-free operating points actually elide trials
     (fastforward.trials_elided) and still match full replay;
   - jobs=1 and jobs=4 agree under fast-forward;
   - checkpoint records are mode-independent: Off and Auto write
     byte-identical files, and a sweep checkpointed under Off resumes
     under Auto bit-identically;
   - sfi-snap/1 entries survive round-trips and reject corruption,
     truncation and version bumps (counted on cache.corrupt_rejected),
     falling back to re-recording; cold and warm runs keep identical
     det signatures. *)

open Sfi_sim
open Sfi_kernels
open Sfi_fi
module Spec = Campaign.Spec

let () = Sfi_obs.set_enabled true

let c_elided = Sfi_obs.Counter.make ~det:false "fastforward.trials_elided"

let c_restores = Sfi_obs.Counter.make ~det:false "fastforward.restores"

let c_resumed = Sfi_obs.Counter.make ~det:false "campaign.resumed_trials"

let c_corrupt = Sfi_obs.Counter.make ~det:false "cache.corrupt_rejected"

let value = Sfi_obs.Counter.value

let with_obs f =
  Sfi_obs.reset ();
  let r = f () in
  (r, Sfi_obs.det_signature ())

let model_a p = Sfi_core.Flow.model_a ~bit_flip_prob:p

let point_equal (p : Campaign.point) (q : Campaign.point) =
  Campaign.Point_json.(to_string (of_point p) = to_string (of_point q))
  && p.Campaign.trials = q.Campaign.trials

let points_equal ps qs =
  List.length ps = List.length qs && List.for_all2 point_equal ps qs

let spec_mode mode = Spec.(default |> with_fastforward mode)

(* ---------- Off vs Auto across kernels and engines ---------- *)

let test_parity_all_kernels () =
  Fun.protect
    ~finally:(fun () -> Cpu.set_default_engine Cpu.Auto)
    (fun () ->
      List.iter
        (fun engine ->
          Cpu.set_default_engine engine;
          List.iter
            (fun name ->
              let bench =
                match Registry.by_name name with
                | Some b -> b
                | None -> Alcotest.failf "unknown bench %s" name
              in
              (* warm the in-process reference-cycles memo so both runs
                 see the same hit/miss counts *)
              ignore (Campaign.reference_cycles bench : int);
              let spec mode =
                Spec.(spec_mode mode |> with_trials 6 |> with_seed 11 |> with_jobs 2)
              in
              let model = model_a 0.008 in
              let off, sig_off =
                with_obs (fun () ->
                    Campaign.run (spec Spec.Off) ~bench ~model ~freq_mhz:700.)
              in
              let on, sig_on =
                with_obs (fun () ->
                    Campaign.run (spec Spec.Auto) ~bench ~model ~freq_mhz:700.)
              in
              let what =
                Printf.sprintf "%s/%s" name (Cpu.engine_name engine)
              in
              Alcotest.(check bool) (what ^ ": points equal") true (point_equal off on);
              Alcotest.(check bool)
                (what ^ ": det signatures equal")
                true (sig_off = sig_on))
            Registry.names)
        [ Cpu.Interp; Cpu.Auto ])

(* At a rare-fault operating point most trials are provably fault-free:
   fast-forward must elide them (no simulation at all) and still agree
   with full replay bit for bit. *)
let test_elision_parity () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 2e-7 in
  let spec mode = Spec.(spec_mode mode |> with_trials 24 |> with_seed 3) in
  let off, sig_off =
    with_obs (fun () -> Campaign.run (spec Spec.Off) ~bench ~model ~freq_mhz:700.)
  in
  Sfi_obs.reset ();
  let on = Campaign.run (spec Spec.Auto) ~bench ~model ~freq_mhz:700. in
  let sig_on = Sfi_obs.det_signature () in
  let elided = value c_elided and restores = value c_restores in
  Alcotest.(check bool) "points equal" true (point_equal off on);
  Alcotest.(check bool) "det signatures equal" true (sig_off = sig_on);
  Alcotest.(check bool) "some trials elided" true (elided > 0);
  Alcotest.(check int) "elided + restored = trials" 24 (elided + restores)

(* Model C drives the probe's draw-batching fast path: classes proved
   fault-free by the per-class worst-case bound are jumped over with
   [Rng.skip_gaussians] instead of replayed draw by draw. Just below
   the STA limit faults are possible only through noise, so the
   schedule is dominated by skippable entries — exactly the regime the
   batching must leave bit-identical. *)
let test_model_c_parity () =
  let flow =
    Sfi_core.Flow.create
      ~config:{ Sfi_core.Flow.default_config with Sfi_core.Flow.char_cycles = 400 }
      ()
  in
  let model = Sfi_core.Flow.model_c flow ~vdd:0.7 ~sigma:0.010 () in
  let freq = Sfi_core.Flow.sta_limit_mhz flow ~vdd:0.7 *. 0.999 in
  let bench = Option.get (Registry.by_name "median") in
  ignore (Campaign.reference_cycles bench : int);
  let spec mode = Spec.(spec_mode mode |> with_trials 12 |> with_seed 17) in
  let off, sig_off =
    with_obs (fun () -> Campaign.run (spec Spec.Off) ~bench ~model ~freq_mhz:freq)
  in
  Sfi_obs.reset ();
  let on = Campaign.run (spec Spec.Auto) ~bench ~model ~freq_mhz:freq in
  let sig_on = Sfi_obs.det_signature () in
  let elided = value c_elided and restores = value c_restores in
  Alcotest.(check bool) "model C points equal" true (point_equal off on);
  Alcotest.(check bool) "model C det signatures equal" true (sig_off = sig_on);
  Alcotest.(check int) "every trial elided or restored" 12 (elided + restores)

let test_jobs_parity () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 0.004 in
  let spec jobs =
    Spec.(spec_mode Spec.Auto |> with_trials 16 |> with_seed 7 |> with_jobs jobs)
  in
  let p1, sig1 =
    with_obs (fun () -> Campaign.run (spec 1) ~bench ~model ~freq_mhz:720.)
  in
  let p4, sig4 =
    with_obs (fun () -> Campaign.run (spec 4) ~bench ~model ~freq_mhz:720.)
  in
  Alcotest.(check bool) "jobs=1 vs jobs=4 points equal" true (point_equal p1 p4);
  Alcotest.(check bool) "jobs=1 vs jobs=4 det signatures equal" true (sig1 = sig4)

(* ---------- checkpoints are mode-independent ---------- *)

let with_ckpt f =
  let path = Filename.temp_file "sfi-ff-ckpt" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let truncate_to_lines path k =
  let lines = String.split_on_char '\n' (read_file path) in
  let kept = List.filteri (fun i _ -> i < k) lines in
  write_file path (String.concat "\n" kept ^ "\n")

(* A non-converging adaptive spec: the batch schedule is fixed at 4
   batches of 6, so truncation points are predictable. *)
let ckpt_spec mode path =
  Spec.(
    spec_mode mode
    |> with_adaptive ~batch:6 ~max_trials:24 ~ci_target:0.01
    |> with_seed 5 |> with_checkpoint path)

let test_checkpoint_records_identical () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 0.004 in
  let freqs = [ 680.; 740. ] in
  let run mode path =
    Campaign.run_sweep (ckpt_spec mode path) ~bench ~model ~freqs_mhz:freqs
  in
  let ps_off, file_off = with_ckpt (fun p -> (run Spec.Off p, read_file p)) in
  let ps_on, file_on = with_ckpt (fun p -> (run Spec.Auto p, read_file p)) in
  Alcotest.(check bool) "sweeps equal" true (points_equal ps_off ps_on);
  Alcotest.(check string) "checkpoint files byte-identical" file_off file_on

let test_checkpoint_off_resumes_under_on () =
  let bench = Option.get (Registry.by_name "median") in
  let model = model_a 0.004 in
  let freqs = [ 680.; 740. ] in
  let clean =
    with_ckpt (fun p ->
        Campaign.run_sweep (ckpt_spec Spec.Off p) ~bench ~model ~freqs_mhz:freqs)
  in
  with_ckpt @@ fun path ->
  ignore
    (Campaign.run_sweep (ckpt_spec Spec.Off path) ~bench ~model ~freqs_mhz:freqs
      : Campaign.point list);
  (* the on-disk state of a full-replay sweep killed after 3 batches *)
  truncate_to_lines path 3;
  Sfi_obs.reset ();
  let resumed =
    Campaign.run_sweep (ckpt_spec Spec.Auto path) ~bench ~model ~freqs_mhz:freqs
  in
  Alcotest.(check int) "3 batches of 6 resumed" 18 (value c_resumed);
  Alcotest.(check bool) "resumed under Auto equals clean full replay" true
    (points_equal clean resumed)

(* ---------- sfi-snap/1 cache robustness ---------- *)

let seq = ref 0

let with_temp_cache f =
  incr seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sfi-ff-cache.%d.%d" (Unix.getpid ()) !seq)
  in
  Sfi_cache.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      ignore (Sfi_cache.prune ~all:true ~dir () : int);
      (try Unix.rmdir dir with Unix.Unix_error _ -> () | Sys_error _ -> ());
      Sfi_cache.set_dir None)
    (fun () -> f dir)

let the_entry dir =
  match Sfi_cache.scan ~dir with
  | [ e ] -> e
  | es -> Alcotest.failf "expected exactly one entry, scan found %d" (List.length es)

let corrupt_byte path pos =
  let content = read_file path in
  let pos = if pos < String.length content then pos else String.length content / 2 in
  let b = Bytes.of_string content in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
  write_file path (Bytes.to_string b)

(* Strides are distinct per test: the in-process memo is keyed by
   (bench, stride), so a fresh stride forces a fresh recording (and a
   fresh disk entry) regardless of test order. *)
let bench_for_cache = lazy (Option.get (Registry.by_name "median"))

let load_trace ~key = (Sfi_cache.load ~namespace:"snap" ~key : Fastforward.trace option)

let test_snap_corruption_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  Alcotest.(check bool) "trace recorded" true
    (Fastforward.trace_for ~bench ~stride:37 <> None);
  let e = the_entry dir in
  Alcotest.(check string) "namespace" "snap" e.Sfi_cache.namespace;
  Alcotest.(check bool) "entry loads" true (load_trace ~key:e.Sfi_cache.key <> None);
  let path = Filename.concat dir e.Sfi_cache.file in
  corrupt_byte path 64;
  let r0 = value c_corrupt in
  Alcotest.(check bool) "corrupt entry rejected" true
    (load_trace ~key:e.Sfi_cache.key = None);
  Alcotest.(check int) "rejection counted" (r0 + 1) (value c_corrupt);
  Alcotest.(check bool) "bad file removed" false (Sys.file_exists path);
  (* a fresh stride re-records and repopulates the cache *)
  Alcotest.(check bool) "re-recorded" true
    (Fastforward.trace_for ~bench ~stride:41 <> None);
  Alcotest.(check bool) "repopulated" true
    (load_trace ~key:(the_entry dir).Sfi_cache.key <> None)

let test_snap_truncation_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  ignore (Fastforward.trace_for ~bench ~stride:53 : Fastforward.trace option);
  let e = the_entry dir in
  let path = Filename.concat dir e.Sfi_cache.file in
  let content = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub content 0 keep);
      Alcotest.(check bool)
        (Printf.sprintf "truncated to %d bytes rejected" keep)
        true
        (load_trace ~key:e.Sfi_cache.key = None);
      write_file path content)
    [ 0; 4; 11; 20; String.length content - 1 ]

let test_snap_version_bump_rejected () =
  with_temp_cache @@ fun dir ->
  let bench = Lazy.force bench_for_cache in
  ignore (Fastforward.trace_for ~bench ~stride:71 : Fastforward.trace option);
  let e = the_entry dir in
  (* byte 7 is the low byte of the big-endian schema version *)
  corrupt_byte (Filename.concat dir e.Sfi_cache.file) 7;
  Alcotest.(check bool) "bumped version rejected" true
    (load_trace ~key:e.Sfi_cache.key = None)

(* A reference run that does not exit yields no trace, and nothing is
   stored for it: the campaign falls back to full replay. A misaligned
   entry point traps on the first fetch. *)
let test_trapping_reference_not_stored () =
  with_temp_cache @@ fun dir ->
  let median = Lazy.force bench_for_cache in
  let p = median.Bench.program in
  let bench =
    {
      median with
      Bench.name = "median-trap";
      program = { p with Sfi_isa.Program.entry = p.Sfi_isa.Program.entry + 2 };
    }
  in
  Alcotest.(check bool) "no trace" true (Fastforward.trace_for ~bench ~stride:64 = None);
  Alcotest.(check int) "nothing stored" 0 (List.length (Sfi_cache.scan ~dir))

let test_cold_warm_det_signature () =
  with_temp_cache @@ fun _dir ->
  let bench = Option.get (Registry.by_name "mat_mult_8bit") in
  ignore (Campaign.reference_cycles bench : int);
  let model = model_a 0.006 in
  let spec = Spec.(spec_mode Spec.Auto |> with_trials 8 |> with_seed 13) in
  let cold, sig_cold =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:710.)
  in
  let warm, sig_warm =
    with_obs (fun () -> Campaign.run spec ~bench ~model ~freq_mhz:710.)
  in
  Alcotest.(check bool) "cold/warm points equal" true (point_equal cold warm);
  Alcotest.(check bool) "cold/warm det signatures equal" true (sig_cold = sig_warm)

let () =
  Alcotest.run "fastforward"
    [
      ( "parity",
        [
          Alcotest.test_case "all kernels, both engines" `Quick test_parity_all_kernels;
          Alcotest.test_case "rare faults elide trials" `Quick test_elision_parity;
          Alcotest.test_case "model C batched probe" `Quick test_model_c_parity;
          Alcotest.test_case "jobs=1 vs jobs=4" `Quick test_jobs_parity;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "records mode-independent" `Quick
            test_checkpoint_records_identical;
          Alcotest.test_case "Off checkpoint resumes under On" `Quick
            test_checkpoint_off_resumes_under_on;
        ] );
      ( "snap-cache",
        [
          Alcotest.test_case "corruption rejected" `Quick test_snap_corruption_rejected;
          Alcotest.test_case "truncation rejected" `Quick test_snap_truncation_rejected;
          Alcotest.test_case "trapping reference not stored" `Quick
            test_trapping_reference_not_stored;
          Alcotest.test_case "version bump rejected" `Quick
            test_snap_version_bump_rejected;
          Alcotest.test_case "cold/warm det signature" `Quick
            test_cold_warm_det_signature;
        ] );
    ]
