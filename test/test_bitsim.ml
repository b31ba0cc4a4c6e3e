(* Bit-parallel engine tests: the compiled levelized schedule, the word
   evaluator, lane packing, the packed event-driven DTA, and the
   seed-replica differential contract — the packed characterization
   kernel must produce a class database bit-identical to the scalar
   kernel's, across every op class and operand profile. *)

open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_oracle
module B = Circuit.Builder

(* The production run must compute for real: no persistent cache may
   serve it a stored database. *)
let () = Sfi_cache.set_dir None

(* ---------- compiled levelized schedule ---------- *)

let random_circuit rng ~inputs ~gates =
  let b = B.create () in
  let ins = Array.init inputs (fun i -> B.input b (Printf.sprintf "i%d" i)) in
  let nets = ref (Array.to_list ins) in
  let pick () =
    let l = !nets in
    List.nth l (Rng.int rng (List.length l))
  in
  let kinds = Array.of_list Cell.all in
  for _ = 1 to gates do
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let fan_in = Array.init (Cell.arity kind) (fun _ -> pick ()) in
    nets := B.gate b kind fan_in :: !nets
  done;
  let outs = List.filteri (fun i _ -> i < 4) !nets in
  List.iteri (fun i n -> B.output b (Printf.sprintf "o%d" i) n) outs;
  (Circuit.freeze b ~lib:Cell_lib.default, ins, Array.of_list outs)

let test_schedule_well_formed () =
  let rng = Rng.of_int 11 in
  let c, _, _ = random_circuit rng ~inputs:8 ~gates:120 in
  let n_gates = Circuit.gate_count c in
  Alcotest.(check int) "schedule covers every gate" n_gates
    (Array.length c.Circuit.sched_gate);
  let seen = Array.make n_gates false in
  Array.iter
    (fun gi ->
      Alcotest.(check bool) "gate scheduled once" false seen.(gi);
      seen.(gi) <- true)
    c.Circuit.sched_gate;
  (* Every gate strictly above its fan-in drivers, segments uniform in
     kind and nondecreasing in level. *)
  Array.iteri
    (fun gi (g : Circuit.gate) ->
      Array.iter
        (fun n ->
          let d = c.Circuit.driver.(n) in
          if d >= 0 then
            Alcotest.(check bool) "level above fan-in" true
              (c.Circuit.gate_level.(gi) > c.Circuit.gate_level.(d)))
        g.Circuit.fan_in;
      Alcotest.(check bool) "level within bounds" true
        (c.Circuit.gate_level.(gi) >= 1 && c.Circuit.gate_level.(gi) <= c.Circuit.n_levels))
    c.Circuit.gates;
  let last_level = ref 0 in
  Array.iteri
    (fun s kind ->
      let lo = c.Circuit.seg_off.(s) and hi = c.Circuit.seg_off.(s + 1) in
      Alcotest.(check bool) "segment non-empty" true (hi > lo);
      let lvl = c.Circuit.gate_level.(c.Circuit.sched_gate.(lo)) in
      Alcotest.(check bool) "segments level-ordered" true (lvl >= !last_level);
      last_level := lvl;
      for j = lo to hi - 1 do
        let gi = c.Circuit.sched_gate.(j) in
        Alcotest.(check int) "segment kind uniform" kind c.Circuit.kind_code.(gi);
        Alcotest.(check int) "segment level uniform" lvl c.Circuit.gate_level.(gi)
      done)
    c.Circuit.seg_kind;
  Alcotest.(check int) "n_levels is the max gate level" c.Circuit.n_levels
    (Array.fold_left max 0 c.Circuit.gate_level)

(* ---------- word evaluator vs scalar evaluation ---------- *)

let prop_eval_levels_matches_scalar =
  QCheck.Test.make ~name:"Bitsim.eval_levels equals per-lane scalar evaluation"
    ~count:60 QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed + 31) in
      let c, ins, outs = random_circuit rng ~inputs:7 ~gates:60 in
      let words = Bitsim.make_words c in
      (* Random word per input: every lane is an independent vector. *)
      let in_words =
        Array.map
          (fun _ ->
            Int64.to_int
              (Int64.logand (Rng.int64 rng) (Int64.of_int Bitsim.full_mask)))
          ins
      in
      Array.iteri (fun i n -> words.(n) <- in_words.(i)) ins;
      Bitsim.eval_levels c words;
      let ok = ref true in
      for lane = 0 to Bitsim.lanes - 1 do
        let values = Array.make c.Circuit.n_nets false in
        (match c.Circuit.const_true with Some n -> values.(n) <- true | None -> ());
        Array.iteri
          (fun i n -> values.(n) <- (in_words.(i) lsr lane) land 1 = 1)
          ins;
        Circuit.eval_all_gates c values;
        Array.iter
          (fun n -> if values.(n) <> ((words.(n) lsr lane) land 1 = 1) then ok := false)
          outs
      done;
      !ok)

(* ---------- lane packing round-trip ---------- *)

let prop_pack_roundtrip =
  QCheck.Test.make ~name:"lane pack/read_lane round-trips random trial vectors"
    ~count:200
    QCheck.(pair (int_range 1 63) small_nat)
    (fun (nvals, seed) ->
      let rng = Rng.of_int (seed + 7) in
      let vals = Array.init nvals (fun _ -> Rng.bits32 rng) in
      let nets = Array.init 32 (fun i -> i) in
      let words = Array.make 32 0 in
      Bitsim.pack words nets vals;
      let ok = ref true in
      for l = 0 to nvals - 1 do
        if Bitsim.read_lane words nets ~lane:l <> vals.(l) then ok := false
      done;
      (* Lanes beyond the packed values read back as zero. *)
      for l = nvals to Bitsim.lanes - 1 do
        if Bitsim.read_lane words nets ~lane:l <> 0 then ok := false
      done;
      !ok)

let test_popcount_ctz () =
  Alcotest.(check int) "popcount full" Bitsim.lanes (Bitsim.popcount Bitsim.full_mask);
  Alcotest.(check int) "popcount zero" 0 (Bitsim.popcount 0);
  for l = 0 to Bitsim.lanes - 1 do
    Alcotest.(check int) "ctz of single bit" l (Bitsim.ctz (1 lsl l));
    Alcotest.(check int) "popcount single bit" 1 (Bitsim.popcount (1 lsl l))
  done;
  Alcotest.(check int) "ctz picks lowest bit" 3 (Bitsim.ctz (0b11010_1000))

(* ---------- packed DTA vs per-lane scalar DTA ---------- *)

(* Jitter every gate delay by a random factor: distinct delay-path sums
   then never collide in float, so the packed engine's event merging
   cannot hit the dependent same-instant ties that are the one
   documented divergence risk — matching the process variation every
   production netlist carries. *)
let jitter_delays rng c =
  Circuit.scale_gate_delays c (fun _ -> 0.8 +. (0.4 *. Rng.float rng))

let prop_packed_dta_matches_scalar =
  QCheck.Test.make ~name:"packed DTA settle times bit-equal per-lane scalar DTA"
    ~count:25 QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed + 211) in
      let c, ins, outs = random_circuit rng ~inputs:6 ~gates:80 in
      jitter_delays rng c;
      let packed = Dta_packed.create ~watch:outs c in
      (* One word per input; lane l of the packed cycle must equal a
         fresh scalar DTA driven with lane l's bits. *)
      let in_words =
        Array.map
          (fun _ ->
            Int64.to_int
              (Int64.logand (Rng.int64 rng) (Int64.of_int Bitsim.full_mask)))
          ins
      in
      Array.iteri (fun i n -> Dta_packed.set_input_word packed n in_words.(i)) ins;
      Dta_packed.cycle packed;
      let ok = ref true in
      for lane = 0 to Bitsim.lanes - 1 do
        let scalar = Dta.create c in
        Array.iteri
          (fun i n -> Dta.set_input scalar n ((in_words.(i) lsr lane) land 1 = 1))
          ins;
        Dta.cycle scalar;
        Array.iter
          (fun n ->
            if Dta.value scalar n <> Dta_packed.value packed n ~lane then ok := false;
            (* Bit-identical, not approximately equal. *)
            if Dta.settle_time scalar n <> Dta_packed.settle_time packed n ~lane then
              ok := false)
          outs
      done;
      !ok)

(* ---------- seed-replica differential: packed vs scalar class_db ---------- *)

let sized_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

(* Mixed operand profiles so the differential covers uniform32/16/8. *)
let profile_for cls =
  match Op_class.index cls mod 3 with
  | 0 -> Characterize.uniform32
  | 1 -> Characterize.uniform16
  | _ -> Characterize.uniform8

let db_bytes (db : Characterize.t) = Marshal.to_string db []

let test_packed_db_bit_identical () =
  let alu = Lazy.force sized_alu in
  let scalar = Scalar_characterize.run ~cycles:150 ~seed:97 ~profile_for ~vdd:0.7 alu in
  let packed = Characterize.run ~cycles:150 ~seed:97 ~profile_for ~vdd:0.7 alu in
  (* Bit-identity of the full database: every per-class CDF, the raw
     cycle_arrivals matrices and the settle maxima, via the marshalled
     bytes (floats compared representation-exact). *)
  Alcotest.(check bool) "class_db bit-identical across engines" true
    (db_bytes scalar = db_bytes packed);
  (* And spot-check semantics, so a Marshal quirk could not hide a
     real difference. *)
  List.iter
    (fun cls ->
      let s = Characterize.class_db scalar cls in
      let p = Characterize.class_db packed cls in
      Alcotest.(check string) "profile" s.Characterize.profile_name
        p.Characterize.profile_name;
      Alcotest.(check bool) "max_settle" true
        (Float.equal s.Characterize.max_settle p.Characterize.max_settle);
      Alcotest.(check bool) "cycle_arrivals" true
        (s.Characterize.cycle_arrivals = p.Characterize.cycle_arrivals))
    Op_class.all

(* The packed kernel must survive a partial final sweep (cycles not a
   multiple of lanes is the common case) and a single-trial run. *)
let test_packed_partial_batches () =
  let alu = Lazy.force sized_alu in
  List.iter
    (fun cycles ->
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at %d cycles" cycles)
        true
        (db_bytes (Scalar_characterize.run ~cycles ~seed:5 ~vdd:0.7 alu)
        = db_bytes (Characterize.run ~cycles ~seed:5 ~vdd:0.7 alu)))
    [ 1; Bitsim.lanes; Bitsim.lanes + 1 ]

(* A production run is served by the packed kernel (its sweeps are
   counted) and its database equals the scalar reference. *)
let test_auto_resolves () =
  let alu = Lazy.force sized_alu in
  let batches = Sfi_obs.Counter.make ~det:false "bitsim.batches" in
  Sfi_obs.set_enabled true;
  Sfi_obs.reset ();
  let packed =
    Fun.protect
      ~finally:(fun () -> Sfi_obs.set_enabled false)
      (fun () -> Characterize.run ~cycles:80 ~seed:12 ~vdd:0.7 alu)
  in
  Alcotest.(check bool) "ran packed sweeps" true (Sfi_obs.Counter.value batches > 0);
  Alcotest.(check bool) "equals scalar reference" true
    (db_bytes packed = db_bytes (Scalar_characterize.run ~cycles:80 ~seed:12 ~vdd:0.7 alu))

let () =
  Alcotest.run "sfi_bitsim"
    [
      ( "schedule",
        [ Alcotest.test_case "levelized schedule well-formed" `Quick test_schedule_well_formed ] );
      ( "words",
        [
          QCheck_alcotest.to_alcotest prop_eval_levels_matches_scalar;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          Alcotest.test_case "popcount and ctz" `Quick test_popcount_ctz;
        ] );
      ( "packed-dta",
        [ QCheck_alcotest.to_alcotest prop_packed_dta_matches_scalar ] );
      ( "differential",
        [
          Alcotest.test_case "packed class_db bit-identical" `Quick
            test_packed_db_bit_identical;
          Alcotest.test_case "partial final sweep" `Quick test_packed_partial_batches;
          Alcotest.test_case "auto engine resolution" `Quick test_auto_resolves;
        ] );
    ]
