open Sfi_util
open Sfi_netlist
open Sfi_timing
open Sfi_oracle
module B = Circuit.Builder

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Min_heap ---------- *)

let test_heap_basic () =
  let h = Min_heap.create () in
  Alcotest.(check bool) "empty" true (Min_heap.is_empty h);
  Min_heap.push h 3. 30;
  Min_heap.push h 1. 10;
  Min_heap.push h 2. 20;
  Alcotest.(check int) "size" 3 (Min_heap.size h);
  Alcotest.(check (option (pair (float 0.) int))) "peek->pop" (Some (1., 10)) (Min_heap.pop h);
  Alcotest.(check (option (pair (float 0.) int))) "pop2" (Some (2., 20)) (Min_heap.pop h);
  Alcotest.(check (option (pair (float 0.) int))) "pop3" (Some (3., 30)) (Min_heap.pop h);
  Alcotest.(check (option (pair (float 0.) int))) "pop empty" None (Min_heap.pop h)

let test_heap_grows () =
  let h = Min_heap.create ~capacity:2 () in
  for i = 100 downto 1 do
    Min_heap.push h (float_of_int i) i
  done;
  for i = 1 to 100 do
    match Min_heap.pop h with
    | Some (k, p) ->
      check_float "key order" (float_of_int i) k;
      Alcotest.(check int) "payload" i p
    | None -> Alcotest.fail "premature empty"
  done

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops keys in ascending order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun keys ->
      let h = Min_heap.create () in
      List.iteri (fun i k -> Min_heap.push h k i) keys;
      let rec drain last =
        match Min_heap.pop h with
        | None -> true
        | Some (k, _) -> k >= last && drain k
      in
      drain neg_infinity)

(* Keys quantized to a small grid so duplicate keys are frequent: the pop
   sequence must be exactly the sorted input multiset, and every payload
   must identify a pushed element carrying that key. *)
let prop_heap_matches_sort =
  QCheck.Test.make ~name:"heap pop sequence equals List.sort (with duplicates)"
    ~count:300
    QCheck.(list (int_range 0 15))
    (fun ints ->
      let keys = List.map (fun i -> float_of_int i *. 12.5) ints in
      let arr = Array.of_list keys in
      let h = Min_heap.create () in
      List.iteri (fun i k -> Min_heap.push h k i) keys;
      let popped = ref [] in
      let payload_ok = ref true in
      let rec drain () =
        match Min_heap.pop h with
        | None -> ()
        | Some (k, p) ->
          if not (p >= 0 && p < Array.length arr && arr.(p) = k) then
            payload_ok := false;
          popped := k :: !popped;
          drain ()
      in
      drain ();
      !payload_ok && List.rev !popped = List.sort compare keys)

let test_heap_int_key_api () =
  (* key_of_float is a strictly monotone, exactly invertible encoding. *)
  let samples = [ 0.; 0.5; 1.; 3.25; 17.; 999.75; 1000.; 123456.789 ] in
  List.iter
    (fun f ->
      check_float "key roundtrip" f (Min_heap.float_of_key (Min_heap.key_of_float f)))
    samples;
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "key order preserved" true
        (Min_heap.key_of_float a < Min_heap.key_of_float b);
      pairs rest
    | _ -> ()
  in
  pairs samples;
  (* pop_unsafe drains in nondecreasing key order without options. *)
  let h = Min_heap.create ~capacity:2 () in
  let keys = [| 7.5; 1.25; 7.5; 0.; 3.; 1.25; 42. |] in
  Array.iteri (fun i k -> Min_heap.push_key h (Min_heap.key_of_float k) i) keys;
  Alcotest.(check int) "peek is min" (Min_heap.key_of_float 0.)
    (Min_heap.peek_key_int h);
  let last = ref min_int and n = ref 0 in
  let rec drain () =
    let p = Min_heap.pop_unsafe h in
    if p <> Min_heap.no_event then begin
      let k = Min_heap.popped_key h in
      Alcotest.(check bool) "nondecreasing" true (k >= !last);
      check_float "key matches pushed payload" keys.(p) (Min_heap.float_of_key k);
      last := k;
      incr n;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all popped" (Array.length keys) !n;
  Alcotest.(check int) "empty sentinel" Min_heap.no_event (Min_heap.pop_unsafe h)

(* ---------- Vdd_model ---------- *)

let test_vdd_nominal_is_unity () =
  check_float "derate(0.7)=1" 1.0 (Vdd_model.derate Vdd_model.default 0.7)

let test_vdd_monotone () =
  let m = Vdd_model.default in
  Alcotest.(check bool) "slower at 0.6" true (Vdd_model.derate m 0.6 > 1.0);
  Alcotest.(check bool) "faster at 0.8" true (Vdd_model.derate m 0.8 < 1.0);
  Alcotest.(check bool) "faster at 1.0 than 0.8" true
    (Vdd_model.derate m 1.0 < Vdd_model.derate m 0.8)

let test_vdd_scale_factor () =
  let m = Vdd_model.default in
  check_float "no noise" 1.0 (Vdd_model.scale_factor m ~vdd:0.7 ~noise:0.);
  (* The two anchor points that reproduce the paper's model B+ onsets:
     -20 mV (2 sigma at sigma=10 mV) and -50 mV (2 sigma at 25 mV). *)
  let s20 = Vdd_model.scale_factor m ~vdd:0.7 ~noise:(-0.020) in
  let s50 = Vdd_model.scale_factor m ~vdd:0.7 ~noise:(-0.050) in
  (* 707 MHz / s20 ~ 661 MHz and 707 / s50 ~ 588-590 MHz: the paper's
     model B+ first-fault frequencies for sigma = 10 mV and 25 mV. *)
  Alcotest.(check bool) (Printf.sprintf "s20=%.4f in [1.06,1.08]" s20) true
    (s20 > 1.06 && s20 < 1.08);
  Alcotest.(check bool) (Printf.sprintf "s50=%.4f in [1.18,1.22]" s50) true
    (s50 > 1.18 && s50 < 1.22);
  Alcotest.(check bool) "positive noise speeds up" true
    (Vdd_model.scale_factor m ~vdd:0.7 ~noise:0.02 < 1.0)

let test_vdd_anchors () =
  Alcotest.(check int) "5 anchors" 5 (List.length (Vdd_model.anchors Vdd_model.default));
  List.iter
    (fun (v, d) ->
      if v = 0.7 then check_float "anchor at nominal" 1.0 d)
    (Vdd_model.anchors Vdd_model.default)

let test_vdd_rejects_bad_anchor () =
  Alcotest.(check bool) "anchor below vth" true
    (try
       ignore (Vdd_model.create ~vth:0.5 ~anchors:[ 0.45; 0.7 ] ());
       false
     with Invalid_argument _ -> true)

let test_vdd_sensitivity_negative () =
  Alcotest.(check bool) "sensitivity < 0" true
    (Vdd_model.sensitivity Vdd_model.default 0.7 < 0.)

let test_vdd_kind_skew () =
  (* A cell kind with non-zero skew must deviate from the nominal curve at
     off-nominal voltage but match at nominal. *)
  let m = Vdd_model.default in
  let lib = Cell_lib.default in
  check_float "nominal unity" 1.0 (Vdd_model.derate_kind m lib Cell.Nor2 0.7);
  let plain = Vdd_model.derate m 0.6 in
  let skewed = Vdd_model.derate_kind m lib Cell.Nor2 0.6 in
  Alcotest.(check bool) "skewed cell slower at low vdd" true (skewed > plain)

(* ---------- Cdf ---------- *)

let test_cdf_basic () =
  let c = Cdf.of_samples [| 3.; 1.; 2.; 2. |] in
  Alcotest.(check int) "n" 4 (Cdf.n c);
  check_float "min" 1. (Cdf.min_value c);
  check_float "max" 3. (Cdf.max_value c);
  check_float "P(>0)" 1. (Cdf.prob_greater c 0.);
  check_float "P(>1)" 0.75 (Cdf.prob_greater c 1.);
  check_float "P(>2)" 0.25 (Cdf.prob_greater c 2.);
  check_float "P(>3)" 0. (Cdf.prob_greater c 3.);
  check_float "P(<=2)" 0.75 (Cdf.prob_leq c 2.);
  check_float "mean" 2. (Cdf.mean c)

let test_cdf_quantiles () =
  let c = Cdf.of_samples (Array.init 100 (fun i -> float_of_int (i + 1))) in
  check_float "q0" 1. (Cdf.quantile c 0.);
  check_float "q1" 100. (Cdf.quantile c 1.);
  check_float "median" 50. (Cdf.quantile c 0.5);
  check_float "q95" 95. (Cdf.quantile c 0.95)

let test_cdf_empty_rejected () =
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Cdf.of_samples [||]);
       false
     with Invalid_argument _ -> true)

let test_cdf_nan_rejected () =
  Alcotest.(check bool) "NaN raises" true
    (try
       ignore (Cdf.of_samples [| 1.; Float.nan; 3. |]);
       false
     with Invalid_argument _ -> true)

(* Float.compare is a total order over every non-NaN float, including
   negative zero and infinities — the sort must place them correctly. *)
let test_cdf_total_order () =
  let c = Cdf.of_samples [| 0.; -0.; Float.infinity; Float.neg_infinity; 1. |] in
  check_float "min is -inf" Float.neg_infinity (Cdf.min_value c);
  check_float "max is +inf" Float.infinity (Cdf.max_value c);
  check_float "P(>1) counts only +inf" 0.2 (Cdf.prob_greater c 1.)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"prob_greater is non-increasing" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 40) (float_range 0. 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (samples, (x, y)) ->
      let c = Cdf.of_samples (Array.of_list samples) in
      let lo = Float.min x y and hi = Float.max x y in
      Cdf.prob_greater c lo >= Cdf.prob_greater c hi)

(* ---------- Noise ---------- *)

let test_noise_zero_sigma () =
  let rng = Rng.of_int 1 in
  check_float "no noise" 0. (Noise.draw Noise.none rng)

let test_noise_clipping () =
  let n = Noise.create ~sigma:0.01 () in
  let rng = Rng.of_int 2 in
  check_float "max excursion" 0.02 (Noise.max_excursion n);
  for _ = 1 to 10_000 do
    let x = Noise.draw n rng in
    if abs_float x > 0.02 +. 1e-12 then Alcotest.failf "clip violated: %g" x
  done

let test_noise_rejects_negative () =
  Alcotest.(check bool) "negative sigma" true
    (try
       ignore (Noise.create ~sigma:(-1.) ());
       false
     with Invalid_argument _ -> true)

(* ---------- STA ---------- *)

let test_sta_inverter_chain () =
  (* Chain of 3 inverters: arrival should be the sum of the gate delays. *)
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.gate b Cell.Inv [| x |] in
  let n2 = B.gate b Cell.Inv [| n1 |] in
  let n3 = B.gate b Cell.Inv [| n2 |] in
  B.output b "y" n3;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let expected = Array.fold_left ( +. ) 0. c.Circuit.base_delay in
  let r = Sta.analyze c in
  check_float "worst = sum of delays" expected r.Sta.worst;
  Alcotest.(check int) "one endpoint" 1 (Array.length r.Sta.endpoints)

let test_sta_takes_max_path () =
  (* Two paths of different length converging on an OR gate. *)
  let b = B.create () in
  let x = B.input b "x" in
  let slow = B.gate b Cell.Inv [| B.gate b Cell.Inv [| x |] |] in
  let fast = x in
  let y = B.gate b Cell.Or2 [| slow; fast |] in
  B.output b "y" y;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let r = Sta.analyze c in
  let d_inv1 = c.Circuit.base_delay.(0) and d_inv2 = c.Circuit.base_delay.(1) in
  let d_or = c.Circuit.base_delay.(2) in
  check_float "max path" (d_inv1 +. d_inv2 +. d_or) r.Sta.worst

let test_sta_vdd_derating () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "y" (B.gate b Cell.Inv [| x |]);
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let at_07 = (Sta.analyze ~vdd:0.7 c).Sta.worst in
  let at_06 = (Sta.analyze ~vdd:0.6 c).Sta.worst in
  let at_08 = (Sta.analyze ~vdd:0.8 c).Sta.worst in
  Alcotest.(check bool) "slower at 0.6" true (at_06 > at_07);
  Alcotest.(check bool) "faster at 0.8" true (at_08 < at_07)

let test_sta_through_restriction () =
  let b = B.create () in
  let x = B.input b "x" in
  B.set_tag b "u1";
  let long = B.gate b Cell.Inv [| B.gate b Cell.Inv [| B.gate b Cell.Inv [| x |] |] |] in
  B.set_tag b "u2";
  let short = B.gate b Cell.Inv [| x |] in
  B.set_tag b "select";
  let y = B.gate b Cell.Or2 [| long; short |] in
  B.output b "y" y;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let w1 = Sta.worst_through c ~tag:"u1" and w2 = Sta.worst_through c ~tag:"u2" in
  Alcotest.(check bool) "u1 slower than u2" true (w1 > w2);
  check_float "full = max of units" (Sta.analyze c).Sta.worst (Float.max w1 w2)

let test_sta_frequency_conversions () =
  check_float "period of 1000 MHz" 1000. (Sta.period_ps_of_mhz 1000.);
  let r = { Sta.net_arrival = [||]; endpoints = [||]; worst = 970. } in
  check_float "fmax with 30ps setup" 1000. (Sta.max_frequency_mhz r)

(* ---------- DTA ---------- *)

let test_dta_inverter_chain_settle () =
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.gate b Cell.Inv [| x |] in
  let n2 = B.gate b Cell.Inv [| n1 |] in
  B.output b "y" n2;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let dta = Dta.create c in
  Dta.set_input dta x true;
  Dta.cycle dta;
  let expected = c.Circuit.base_delay.(0) +. c.Circuit.base_delay.(1) in
  check_float "settle = path delay" expected (Dta.settle_time dta n2);
  Alcotest.(check bool) "value toggled" true (Dta.value dta n2)

let test_dta_no_toggle_no_settle () =
  let b = B.create () in
  let x = B.input b "x" and y = B.input b "y" in
  let z = B.gate b Cell.And2 [| x; y |] in
  B.output b "z" z;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let dta = Dta.create c in
  (* x toggles but the AND output stays 0 because y is low: no settle. *)
  Dta.set_input dta x true;
  Dta.cycle dta;
  check_float "output did not toggle" 0. (Dta.settle_time dta z);
  Alcotest.(check bool) "value still low" false (Dta.value dta z)

let test_dta_rejects_non_input () =
  let b = B.create () in
  let x = B.input b "x" in
  let y = B.gate b Cell.Inv [| x |] in
  B.output b "y" y;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let dta = Dta.create c in
  Alcotest.(check bool) "gate output rejected" true
    (try
       Dta.set_input dta y true;
       false
     with Invalid_argument _ -> true)

let test_dta_matches_logic_sim_on_alu () =
  (* Functional cross-check: after every DTA cycle the settled values must
     equal the zero-delay simulation of the same inputs. This is also
     enforced inside Characterize.run; here we check it directly. *)
  let alu = Alu.build () in
  let dta = Dta.create alu.Alu.circuit in
  let logic = Logic_sim.create alu.Alu.circuit in
  let rng = Rng.of_int 7 in
  List.iter
    (fun cls ->
      for _ = 1 to 10 do
        let a = Rng.bits32 rng and b = Rng.bits32 rng in
        Array.iter (fun (c', net) -> Dta.set_input dta net (c' = cls)) alu.Alu.selects;
        Dta.set_input_vec dta alu.Alu.a a;
        Dta.set_input_vec dta alu.Alu.b b;
        Dta.cycle dta;
        let expect = Op_class.apply cls a b in
        Alcotest.(check int)
          (Printf.sprintf "%s(%08x,%08x)" (Op_class.name cls) a b)
          expect
          (Dta.read_vec dta alu.Alu.result);
        ignore logic
      done)
    [ Op_class.Add; Op_class.Mul; Op_class.Srl; Op_class.Xor_ ]

let test_dta_settle_bounded_by_sta () =
  (* Dynamic settle times can never exceed the static worst arrival. *)
  let alu = Alu.build () in
  let sta = Sta.analyze alu.Alu.circuit in
  let dta = Dta.create alu.Alu.circuit in
  let rng = Rng.of_int 11 in
  Array.iter (fun (c', net) -> Dta.set_input dta net (c' = Op_class.Add)) alu.Alu.selects;
  Dta.cycle dta;
  for _ = 1 to 50 do
    Dta.set_input_vec dta alu.Alu.a (Rng.bits32 rng);
    Dta.set_input_vec dta alu.Alu.b (Rng.bits32 rng);
    Dta.cycle dta;
    Array.iter
      (fun (_, net) ->
        if Dta.settle_time dta net > sta.Sta.net_arrival.(net) +. 1e-6 then
          Alcotest.failf "settle %.2f exceeds STA %.2f" (Dta.settle_time dta net)
            sta.Sta.net_arrival.(net))
      alu.Alu.circuit.Circuit.pos
  done

(* ---------- Path_report ---------- *)

let test_path_report_inverter_chain () =
  let b = B.create () in
  let x = B.input b "x" in
  let n1 = B.gate b Cell.Inv [| x |] in
  let n2 = B.gate b Cell.Inv [| n1 |] in
  let n3 = B.gate b Cell.Inv [| n2 |] in
  B.output b "y" n3;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let p = Path_report.critical_path c ~endpoint:"y" in
  Alcotest.(check int) "3 gates" 3 (List.length p.Path_report.steps);
  check_float "arrival matches STA" (Sta.analyze c).Sta.worst p.Path_report.arrival;
  (* Arrivals along the path are cumulative delays. *)
  let acc = ref 0. in
  List.iter
    (fun (s : Path_report.step) ->
      acc := !acc +. s.Path_report.delay;
      check_float "cumulative" !acc s.Path_report.arrival)
    p.Path_report.steps

let test_path_report_picks_longest_branch () =
  let b = B.create () in
  let x = B.input b "x" in
  let slow = B.gate b Cell.Inv [| B.gate b Cell.Inv [| x |] |] in
  let y = B.gate b Cell.Or2 [| slow; x |] in
  B.output b "y" y;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let p = Path_report.critical_path c ~endpoint:"y" in
  Alcotest.(check int) "through the slow branch" 3 (List.length p.Path_report.steps)

let test_path_report_worst_sorted () =
  let b = B.create () in
  let x = B.input b "x" in
  let fast = B.gate b Cell.Inv [| x |] in
  let slow = B.gate b Cell.Inv [| B.gate b Cell.Inv [| fast |] |] in
  B.output b "fast" fast;
  B.output b "slow" slow;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  match Path_report.worst_paths ~count:2 c with
  | [ p1; p2 ] ->
    Alcotest.(check string) "slowest first" "slow" p1.Path_report.endpoint;
    Alcotest.(check bool) "ordering" true (p1.Path_report.arrival >= p2.Path_report.arrival)
  | _ -> Alcotest.fail "expected two paths"

let test_path_report_unknown_endpoint () =
  let b = B.create () in
  let x = B.input b "x" in
  B.output b "y" (B.gate b Cell.Inv [| x |]);
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Path_report.critical_path c ~endpoint:"nope");
       false
     with Not_found -> true)

let test_path_report_pp_truncates () =
  let b = B.create () in
  let x = B.input b "x" in
  let n = ref x in
  for _ = 1 to 40 do
    n := B.gate b Cell.Inv [| !n |]
  done;
  B.output b "y" !n;
  let c = Circuit.freeze b ~lib:Cell_lib.default in
  let s = Path_report.pp (Path_report.critical_path c ~endpoint:"y") in
  Alcotest.(check bool) "mentions truncation" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l > 0 &&
         let rec has i = i + 4 <= String.length l && (String.sub l i 4 = "more" || has (i+1)) in
         has 0))

(* ---------- Sizing + Characterize (shared sized ALU fixture) ---------- *)

let sized_alu =
  lazy
    (let alu = Alu.build () in
     Sizing.apply_process_variation ~sigma:0.03 ~seed:1 alu.Alu.circuit;
     Sizing.size_to_clock ~clock_mhz:707. alu.Alu.circuit;
     alu)

let small_db =
  lazy (Characterize.run ~cycles:400 ~seed:42 ~vdd:0.7 (Lazy.force sized_alu))

let test_sizing_hits_sta_limit () =
  let alu = Lazy.force sized_alu in
  let fmax = Sta.max_frequency_mhz (Sta.analyze alu.Alu.circuit) in
  Alcotest.(check bool) (Printf.sprintf "fmax %.2f ~ 707" fmax) true
    (abs_float (fmax -. 707.) < 1.0)

let test_sizing_mul_is_critical () =
  let alu = Lazy.force sized_alu in
  let report = Sizing.report alu.Alu.circuit in
  let w tag = List.assoc tag report in
  Alcotest.(check bool) "mul slowest" true (w "mul" >= w "addsub");
  Alcotest.(check bool) "addsub above shifters" true (w "addsub" > w "sll");
  Alcotest.(check bool) "shifters above logic" true (w "sll" > w "and")

let test_sizing_preserves_function () =
  let alu = Lazy.force sized_alu in
  let sim = Logic_sim.create alu.Alu.circuit in
  let rng = Rng.of_int 3 in
  List.iter
    (fun cls ->
      for _ = 1 to 20 do
        let a = Rng.bits32 rng and b = Rng.bits32 rng in
        Alcotest.(check int) "sized alu function" (Op_class.apply cls a b)
          (Alu.simulate alu sim cls a b)
      done)
    Op_class.all

let test_redistribute_rejects_bad_compression () =
  let alu = Lazy.force sized_alu in
  Alcotest.(check bool) "compression out of range" true
    (try
       Sizing.redistribute_slack ~tag:"addsub" ~compression:1.5 alu.Alu.circuit;
       false
     with Invalid_argument _ -> true)

let test_characterize_probability_monotone_in_frequency () =
  let db = Lazy.force small_db in
  List.iter
    (fun cls ->
      let p_slow =
        Characterize.error_probability db cls ~endpoint:31
          ~period_ps:(Sta.period_ps_of_mhz 500.) ~scale:1.0
      in
      let p_mid =
        Characterize.error_probability db cls ~endpoint:31
          ~period_ps:(Sta.period_ps_of_mhz 900.) ~scale:1.0
      in
      let p_fast =
        Characterize.error_probability db cls ~endpoint:31
          ~period_ps:(Sta.period_ps_of_mhz 2500.) ~scale:1.0
      in
      check_float (Op_class.name cls ^ " safe at 500MHz") 0. p_slow;
      Alcotest.(check bool) "monotone" true (p_mid <= p_fast))
    [ Op_class.Add; Op_class.Mul ]

let test_characterize_class_ordering () =
  let db = Lazy.force small_db in
  let f cls = Characterize.class_first_failure_mhz db cls ~scale:1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mul %.0f fails before add %.0f" (f Op_class.Mul) (f Op_class.Add))
    true
    (f Op_class.Mul < f Op_class.Add);
  Alcotest.(check bool) "add fails before and" true (f Op_class.Add < f Op_class.And_);
  (* Everything must be safe at the STA limit without noise. *)
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Printf.sprintf "%s safe at STA" (Op_class.name cls))
        true
        (f cls > 707.))
    Op_class.all

let test_characterize_noise_scale_shifts_down () =
  let db = Lazy.force small_db in
  let f scale = Characterize.class_first_failure_mhz db Op_class.Mul ~scale in
  Alcotest.(check bool) "slower under noise" true (f 1.1 < f 1.0)

let test_characterize_msb_fails_before_lsb () =
  let db = Lazy.force small_db in
  (* At a frequency where faults occur, higher-significance adder bits must
     have at least the error probability of low bits (longer carry paths). *)
  let period = Sta.period_ps_of_mhz 950. in
  let p e = Characterize.error_probability db Op_class.Add ~endpoint:e ~period_ps:period ~scale:1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "P(bit24)=%.3f >= P(bit3)=%.3f" (p 24) (p 3))
    true
    (p 24 >= p 3)

let test_characterize_higher_vdd_shifts_right () =
  let alu = Lazy.force sized_alu in
  let db07 = Lazy.force small_db in
  let db08 = Characterize.run ~cycles:200 ~seed:42 ~vdd:0.8 alu in
  let f07 = Characterize.class_first_failure_mhz db07 Op_class.Mul ~scale:1.0 in
  let f08 = Characterize.class_first_failure_mhz db08 Op_class.Mul ~scale:1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "0.8V limit %.0f > 0.7V limit %.0f" f08 f07)
    true (f08 > f07)

let test_characterize_16bit_profile_safer () =
  let alu = Lazy.force sized_alu in
  let db16 =
    Characterize.run ~cycles:300 ~seed:42 ~vdd:0.7
      ~profile_for:(fun _ -> Characterize.uniform16) alu
  in
  let db32 = Lazy.force small_db in
  let f16 = Characterize.class_first_failure_mhz db16 Op_class.Add ~scale:1.0 in
  let f32 = Characterize.class_first_failure_mhz db32 Op_class.Add ~scale:1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "add16 %.0f fails later than add32 %.0f" f16 f32)
    true (f16 > f32)

let test_violation_mask_consistent () =
  let db = Lazy.force small_db in
  (* If the mask of some cycle has bit e set at period T, then the error
     probability of endpoint e at T must be positive. *)
  let period = Sta.period_ps_of_mhz 1000. in
  let any_bit = ref false in
  for k = 0 to db.Characterize.cycles - 1 do
    let mask = Characterize.violation_mask db Op_class.Mul ~cycle:k ~period_ps:period ~scale:1.0 in
    if mask <> 0 then begin
      any_bit := true;
      for e = 0 to 31 do
        if mask land (1 lsl e) <> 0 then begin
          let p =
            Characterize.error_probability db Op_class.Mul ~endpoint:e ~period_ps:period
              ~scale:1.0
          in
          Alcotest.(check bool) "P > 0 where mask set" true (p > 0.)
        end
      done
    end
  done;
  Alcotest.(check bool) "mul has violations at 1000 MHz" true !any_bit

let test_characterize_deterministic_in_seed () =
  let alu = Lazy.force sized_alu in
  let run () = Characterize.run ~cycles:120 ~seed:5 ~vdd:0.7 alu in
  let a = run () and b = run () in
  List.iter
    (fun cls ->
      let ca = Characterize.class_db a cls and cb = Characterize.class_db b cls in
      Alcotest.(check (float 1e-9))
        (Op_class.name cls ^ " max settle")
        ca.Characterize.max_settle cb.Characterize.max_settle)
    Op_class.all

let test_characterize_rejects_bad_cycles () =
  let alu = Lazy.force sized_alu in
  Alcotest.(check bool) "cycles=0 rejected" true
    (try
       ignore (Characterize.run ~cycles:0 ~vdd:0.7 alu);
       false
     with Invalid_argument _ -> true)

(* ---------- random-circuit properties ---------- *)

(* A generator of small random combinational circuits: validates that the
   delay-annotated simulator agrees with the zero-delay one and never
   settles later than STA, on structures far from the hand-written
   datapaths. *)
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
  (* Outputs: a handful of recent nets. *)
  let outs = List.filteri (fun i _ -> i < 4) !nets in
  List.iteri (fun i n -> B.output b (Printf.sprintf "o%d" i) n) outs;
  (Circuit.freeze b ~lib:Cell_lib.default, ins, Array.of_list outs)

let prop_dta_matches_logic_on_random_circuits =
  QCheck.Test.make ~name:"DTA values equal zero-delay simulation" ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, vectors) ->
      let rng = Rng.of_int (seed + 1) in
      let c, ins, outs = random_circuit rng ~inputs:6 ~gates:40 in
      let dta = Dta.create c in
      let logic = Logic_sim.create c in
      let ok = ref true in
      for _ = 0 to min vectors 20 do
        let v = Rng.int rng 64 in
        Dta.set_input_vec dta ins v;
        Logic_sim.set_input_vec logic ins v;
        Dta.cycle dta;
        Logic_sim.eval logic;
        Array.iter (fun n -> if Dta.value dta n <> Logic_sim.value logic n then ok := false) outs
      done;
      !ok)

let prop_dta_settle_within_sta_on_random_circuits =
  QCheck.Test.make ~name:"DTA settle times bounded by STA on random circuits" ~count:40
    QCheck.small_nat
    (fun seed ->
      let rng = Rng.of_int (seed + 101) in
      let c, ins, outs = random_circuit rng ~inputs:5 ~gates:30 in
      let sta = Sta.analyze c in
      let dta = Dta.create c in
      let ok = ref true in
      for _ = 1 to 10 do
        Dta.set_input_vec dta ins (Rng.int rng 32);
        Dta.cycle dta;
        Array.iter
          (fun n ->
            if Dta.settle_time dta n > sta.Sta.net_arrival.(n) +. 1e-6 then ok := false)
          outs
      done;
      !ok)

(* ---------- DTA vs. seed reference kernel ---------- *)

(* A line-for-line replica of the seed (pre-optimization) DTA: float event
   times, O(n_nets) settle reset per cycle, one event pushed per fan-out
   reader per transition, no coalescing. The production kernel must
   produce bit-identical settle times and values; this pins the int-key
   encoding, the generation-stamp reset and the same-time event dedup
   against the straightforward implementation. *)
module Ref_dta = struct
  type t = {
    circuit : Circuit.t;
    delay : float array;
    values : bool array;
    settle : float array;
    staged : (Circuit.net * bool) Queue.t;
    heap : Min_heap.t;
  }

  let create ?(vdd = Vdd_model.nominal_voltage) ?(vdd_model = Vdd_model.default)
      ?(lib = Cell_lib.default) (c : Circuit.t) =
    let kind_factor =
      let table =
        List.map (fun k -> (k, Vdd_model.derate_kind vdd_model lib k vdd)) Cell.all
      in
      fun kind -> List.assq kind table
    in
    let delay =
      Array.mapi
        (fun i (g : Circuit.gate) ->
          c.Circuit.base_delay.(i) *. kind_factor g.Circuit.kind)
        c.Circuit.gates
    in
    let values = Array.make c.Circuit.n_nets false in
    (match c.Circuit.const_true with Some n -> values.(n) <- true | None -> ());
    Circuit.eval_all_gates c values;
    {
      circuit = c;
      delay;
      values;
      settle = Array.make c.Circuit.n_nets 0.;
      staged = Queue.create ();
      heap = Min_heap.create ();
    }

  let set_input t net v = Queue.add (net, v) t.staged

  let set_input_vec t nets word =
    Array.iteri (fun i n -> set_input t n ((word lsr i) land 1 = 1)) nets

  let cycle t =
    Array.fill t.settle 0 (Array.length t.settle) 0.;
    let off = t.circuit.Circuit.reader_off
    and rg = t.circuit.Circuit.reader_gate in
    let push_readers net time =
      for j = off.(net) to off.(net + 1) - 1 do
        let gi = rg.(j) in
        Min_heap.push t.heap (time +. t.delay.(gi)) gi
      done
    in
    Queue.iter
      (fun (net, v) ->
        if t.values.(net) <> v then begin
          t.values.(net) <- v;
          push_readers net 0.
        end)
      t.staged;
    Queue.clear t.staged;
    let rec drain () =
      match Min_heap.pop t.heap with
      | None -> ()
      | Some (time, gi) ->
        let out_net = t.circuit.Circuit.gates.(gi).Circuit.out in
        let v = Circuit.eval_gate t.circuit t.values gi in
        if t.values.(out_net) <> v then begin
          t.values.(out_net) <- v;
          t.settle.(out_net) <- time;
          push_readers out_net time
        end;
        drain ()
    in
    drain ()

  let read_vec t nets =
    let acc = ref 0 in
    Array.iteri (fun i n -> if t.values.(n) then acc := !acc lor (1 lsl i)) nets;
    !acc

  let settle_time t net = t.settle.(net)
end

let test_dta_equals_reference_kernel () =
  let alu = Lazy.force sized_alu in
  let c = alu.Alu.circuit in
  let dta = Dta.create c in
  let rf = Ref_dta.create c in
  let rng = Rng.of_int 2024 in
  List.iter
    (fun cls ->
      Array.iter
        (fun (sc, n) ->
          Dta.set_input dta n (sc = cls);
          Ref_dta.set_input rf n (sc = cls))
        alu.Alu.selects;
      for _ = 1 to 12 do
        let a = Rng.bits32 rng and b = Rng.bits32 rng in
        Dta.set_input_vec dta alu.Alu.a a;
        Ref_dta.set_input_vec rf alu.Alu.a a;
        Dta.set_input_vec dta alu.Alu.b b;
        Ref_dta.set_input_vec rf alu.Alu.b b;
        Dta.cycle dta;
        Ref_dta.cycle rf;
        Alcotest.(check int) "result vector identical"
          (Ref_dta.read_vec rf alu.Alu.result)
          (Dta.read_vec dta alu.Alu.result);
        Array.iter
          (fun n ->
            let s_ref = Ref_dta.settle_time rf n and s = Dta.settle_time dta n in
            if s <> s_ref then
              Alcotest.failf "settle mismatch on net %d: %.17g vs reference %.17g" n
                s s_ref)
          alu.Alu.result
      done)
    [ Op_class.Add; Op_class.Mul; Op_class.Xor_; Op_class.Sll ]

let test_dta_cycle_allocation_free () =
  match Sys.backend_type with
  | Sys.Native ->
    let alu = Lazy.force sized_alu in
    let dta = Dta.create alu.Alu.circuit in
    let rng = Rng.of_int 99 in
    let n = 64 in
    let va = Array.init n (fun _ -> Rng.bits32 rng) in
    let vb = Array.init n (fun _ -> Rng.bits32 rng) in
    let run () =
      for i = 0 to n - 1 do
        Dta.set_input_vec dta alu.Alu.a va.(i);
        Dta.set_input_vec dta alu.Alu.b vb.(i);
        Dta.cycle dta
      done
    in
    (* Warm-up grows the heap and staging buffers to steady state. *)
    run ();
    let w0 = Gc.minor_words () in
    run ();
    let dw = Gc.minor_words () -. w0 in
    (* The first Gc.minor_words call boxes its float result inside the
       measured window, so allow a few words of slack; the seed kernel
       allocated several words per event (hundreds of thousands here). *)
    Alcotest.(check bool)
      (Printf.sprintf "DTA cycles allocated %.0f minor words" dw)
      true (dw < 16.)
  | Sys.Bytecode | Sys.Other _ ->
    (* Bytecode boxes the [@unboxed] float/int64 externals; the property
       only holds (and only matters) for native code. *)
    ()

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_heap_sorts;
        prop_heap_matches_sort;
        prop_cdf_monotone;
        prop_dta_matches_logic_on_random_circuits;
        prop_dta_settle_within_sta_on_random_circuits;
      ]
  in
  Alcotest.run "sfi_timing"
    [
      ( "min_heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "grows" `Quick test_heap_grows;
          Alcotest.test_case "int-key api" `Quick test_heap_int_key_api;
        ] );
      ( "vdd_model",
        [
          Alcotest.test_case "nominal unity" `Quick test_vdd_nominal_is_unity;
          Alcotest.test_case "monotone" `Quick test_vdd_monotone;
          Alcotest.test_case "scale factor anchors" `Quick test_vdd_scale_factor;
          Alcotest.test_case "anchors" `Quick test_vdd_anchors;
          Alcotest.test_case "bad anchor rejected" `Quick test_vdd_rejects_bad_anchor;
          Alcotest.test_case "sensitivity sign" `Quick test_vdd_sensitivity_negative;
          Alcotest.test_case "per-kind skew" `Quick test_vdd_kind_skew;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "basic" `Quick test_cdf_basic;
          Alcotest.test_case "quantiles" `Quick test_cdf_quantiles;
          Alcotest.test_case "empty rejected" `Quick test_cdf_empty_rejected;
          Alcotest.test_case "NaN rejected" `Quick test_cdf_nan_rejected;
          Alcotest.test_case "total order incl. zeros and infinities" `Quick
            test_cdf_total_order;
        ] );
      ( "noise",
        [
          Alcotest.test_case "zero sigma" `Quick test_noise_zero_sigma;
          Alcotest.test_case "clipping" `Quick test_noise_clipping;
          Alcotest.test_case "negative sigma rejected" `Quick test_noise_rejects_negative;
        ] );
      ( "sta",
        [
          Alcotest.test_case "inverter chain" `Quick test_sta_inverter_chain;
          Alcotest.test_case "max path" `Quick test_sta_takes_max_path;
          Alcotest.test_case "vdd derating" `Quick test_sta_vdd_derating;
          Alcotest.test_case "through restriction" `Quick test_sta_through_restriction;
          Alcotest.test_case "frequency conversions" `Quick test_sta_frequency_conversions;
        ] );
      ( "dta",
        [
          Alcotest.test_case "inverter chain settle" `Quick test_dta_inverter_chain_settle;
          Alcotest.test_case "no toggle no settle" `Quick test_dta_no_toggle_no_settle;
          Alcotest.test_case "rejects non-input" `Quick test_dta_rejects_non_input;
          Alcotest.test_case "matches logic sim on ALU" `Quick test_dta_matches_logic_sim_on_alu;
          Alcotest.test_case "settle bounded by STA" `Quick test_dta_settle_bounded_by_sta;
          Alcotest.test_case "equals seed reference kernel" `Quick
            test_dta_equals_reference_kernel;
          Alcotest.test_case "cycle is allocation-free" `Quick
            test_dta_cycle_allocation_free;
        ] );
      ( "path_report",
        [
          Alcotest.test_case "inverter chain" `Quick test_path_report_inverter_chain;
          Alcotest.test_case "longest branch" `Quick test_path_report_picks_longest_branch;
          Alcotest.test_case "worst sorted" `Quick test_path_report_worst_sorted;
          Alcotest.test_case "unknown endpoint" `Quick test_path_report_unknown_endpoint;
          Alcotest.test_case "pp truncates" `Quick test_path_report_pp_truncates;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "hits STA limit" `Quick test_sizing_hits_sta_limit;
          Alcotest.test_case "mul critical" `Quick test_sizing_mul_is_critical;
          Alcotest.test_case "preserves function" `Quick test_sizing_preserves_function;
          Alcotest.test_case "rejects bad compression" `Quick
            test_redistribute_rejects_bad_compression;
        ] );
      ( "characterize",
        [
          Alcotest.test_case "P monotone in f" `Quick
            test_characterize_probability_monotone_in_frequency;
          Alcotest.test_case "class ordering" `Quick test_characterize_class_ordering;
          Alcotest.test_case "noise shifts down" `Quick
            test_characterize_noise_scale_shifts_down;
          Alcotest.test_case "MSB fails first" `Quick test_characterize_msb_fails_before_lsb;
          Alcotest.test_case "higher vdd shifts right" `Quick
            test_characterize_higher_vdd_shifts_right;
          Alcotest.test_case "16-bit profile safer" `Quick
            test_characterize_16bit_profile_safer;
          Alcotest.test_case "violation mask consistent" `Quick test_violation_mask_consistent;
          Alcotest.test_case "deterministic in seed" `Quick
            test_characterize_deterministic_in_seed;
          Alcotest.test_case "rejects bad cycles" `Quick test_characterize_rejects_bad_cycles;
        ] );
      ("properties", qsuite);
    ]
