open Sfi_util

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 7L in
  let c = Rng.split a in
  (* The split stream must not replay the parent stream. *)
  let xs = Array.init 16 (fun _ -> Rng.int64 a) in
  let ys = Array.init 16 (fun _ -> Rng.int64 c) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy_replays () =
  let a = Rng.create 99L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  let xs = Array.init 8 (fun _ -> Rng.int64 a) in
  let ys = Array.init 8 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "copy replays" true (xs = ys)

let test_rng_float_range () =
  let r = Rng.create 3L in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_range () =
  let r = Rng.create 4L in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done

let test_rng_int_covers () =
  let r = Rng.create 5L in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 7) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_bernoulli_extremes () =
  let r = Rng.create 6L in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli r 0.);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli r 1.);
  Alcotest.(check bool) "p<0" false (Rng.bernoulli r (-0.5));
  Alcotest.(check bool) "p>1" true (Rng.bernoulli r 1.5)

let test_rng_bernoulli_rate () =
  let r = Rng.create 8L in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f close to 0.3" rate)
    true
    (abs_float (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let r = Rng.create 9L in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian r) in
  let m = Stats.mean xs and s = Stats.stddev xs in
  Alcotest.(check bool) (Printf.sprintf "mean %.3f ~ 0" m) true (abs_float m < 0.02);
  Alcotest.(check bool) (Printf.sprintf "std %.3f ~ 1" s) true (abs_float (s -. 1.) < 0.02)

let test_gaussian_clipped () =
  let r = Rng.create 10L in
  for _ = 1 to 20_000 do
    let x = Rng.gaussian_clipped r ~sigma:0.01 ~clip:2.0 in
    if abs_float x > 0.02 +. 1e-12 then Alcotest.failf "clip violated: %g" x
  done;
  check_float "sigma=0 yields 0" 0. (Rng.gaussian_clipped r ~sigma:0. ~clip:2.)

(* ---------- Stats ---------- *)

let test_stats_mean () = check_float "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |])

let test_stats_mean_empty () =
  Alcotest.(check bool) "nan" true (Float.is_nan (Stats.mean [||]))

let test_stats_variance () =
  check_float "variance" 3.7 (Stats.variance [| 1.; 2.; 3.; 4.; 6. |])

let test_stats_variance_singleton () = check_float "var of one" 0. (Stats.variance [| 5. |])

let test_stats_median_odd () = check_float "median odd" 3. (Stats.median [| 5.; 1.; 3. |])

let test_stats_median_even () =
  check_float "median even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |])

let test_stats_median_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Stats.median xs);
  Alcotest.(check (array (float 0.))) "unchanged" [| 3.; 1.; 2. |] xs

let test_stats_percentile () =
  let xs = [| 0.; 1.; 2.; 3.; 4. |] in
  check_float "p0" 0. (Stats.percentile xs 0.);
  check_float "p100" 4. (Stats.percentile xs 100.);
  check_float "p50" 2. (Stats.percentile xs 50.);
  check_float "p25" 1. (Stats.percentile xs 25.);
  check_float "p10" 0.4 (Stats.percentile xs 10.)

let test_stats_fraction () =
  check_float "fraction" 0.5 (Stats.fraction (fun x -> x > 0.) [| 1.; -1.; 2.; -2. |]);
  check_float "empty" 0. (Stats.fraction (fun _ -> true) [||])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check (array int)) "counts" [| 1; 1; 1; 2 |] h.Stats.counts;
  check_float "lo" 0. h.Stats.lo;
  check_float "hi" 4. h.Stats.hi

let test_stats_ci () =
  let xs = Array.make 100 1.0 in
  let m, hw = Stats.mean_ci95 xs in
  check_float "mean" 1. m;
  check_float "halfwidth" 0. hw

(* Degenerate inputs: every summary is total, so `sfi stats` and the
   campaign tables never raise on an empty or single-sample column. *)
let test_stats_empty_totals () =
  Alcotest.(check bool) "median nan" true (Float.is_nan (Stats.median [||]));
  Alcotest.(check bool) "p50 nan" true (Float.is_nan (Stats.percentile [||] 50.));
  let lo, hi = Stats.min_max [||] in
  Alcotest.(check bool) "min nan" true (Float.is_nan lo);
  Alcotest.(check bool) "max nan" true (Float.is_nan hi);
  let h = Stats.histogram ~bins:3 [||] in
  Alcotest.(check (array int)) "all-zero counts" [| 0; 0; 0 |] h.Stats.counts;
  check_float "lo zero" 0. h.Stats.lo;
  check_float "hi zero" 0. h.Stats.hi

let test_stats_singleton_totals () =
  check_float "median" 7. (Stats.median [| 7. |]);
  (* Any percentile of one sample is that sample — no nan rank math. *)
  List.iter
    (fun p -> check_float (Printf.sprintf "p%.0f" p) 7. (Stats.percentile [| 7. |] p))
    [ 0.; 10.; 50.; 95.; 100. ];
  let lo, hi = Stats.min_max [| 7. |] in
  check_float "min" 7. lo;
  check_float "max" 7. hi;
  let h = Stats.histogram ~bins:2 [| 7. |] in
  Alcotest.(check (array int)) "single sample lands once" [| 1; 0 |] h.Stats.counts

let test_stats_percentile_clamps () =
  let xs = [| 1.; 2.; 3. |] in
  check_float "p<0 clamps" 1. (Stats.percentile xs (-5.));
  check_float "p>100 clamps" 3. (Stats.percentile xs 140.)

let test_stats_wilson () =
  (* trials = 0: total, maximally uninformative. *)
  let lo, hi = Stats.wilson_interval ~successes:0 ~trials:0 () in
  check_float "empty lo" 0. lo;
  check_float "empty hi" 1. hi;
  (* Known value: 8/10 at z=1.96 -> (0.4902, 0.9433) (textbook Wilson). *)
  let lo, hi = Stats.wilson_interval ~successes:8 ~trials:10 () in
  Alcotest.(check bool) "8/10 lo" true (Float.abs (lo -. 0.49016) < 1e-4);
  Alcotest.(check bool) "8/10 hi" true (Float.abs (hi -. 0.94331) < 1e-4);
  (* Extremes stay inside [0,1] and never collapse for finite n. *)
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:20 () in
  check_float "0/20 lo clamps" 0. lo0;
  Alcotest.(check bool) "0/20 hi > 0" true (hi0 > 0. && hi0 < 1.);
  let lo1, hi1 = Stats.wilson_interval ~successes:20 ~trials:20 () in
  check_float "20/20 hi clamps" 1. hi1;
  Alcotest.(check bool) "20/20 lo < 1" true (lo1 > 0. && lo1 < 1.);
  (* Interval shrinks with n at fixed rate. *)
  let w n =
    let lo, hi = Stats.wilson_interval ~successes:(n / 2) ~trials:n () in
    hi -. lo
  in
  Alcotest.(check bool) "narrows with n" true (w 400 < w 100 && w 100 < w 20);
  (* Invalid inputs are rejected. *)
  Alcotest.check_raises "successes > trials"
    (Invalid_argument "Stats.wilson_interval: successes out of range")
    (fun () -> ignore (Stats.wilson_interval ~successes:5 ~trials:4 ()))

(* ---------- Interp ---------- *)

let test_interp_eval () =
  let c = Interp.of_points [ (0., 0.); (1., 10.); (2., 30.) ] in
  check_float "at anchor" 10. (Interp.eval c 1.);
  check_float "between" 5. (Interp.eval c 0.5);
  check_float "second segment" 20. (Interp.eval c 1.5);
  check_float "extrapolate low" (-10.) (Interp.eval c (-1.));
  check_float "extrapolate high" 50. (Interp.eval c 3.)

let test_interp_unsorted_input () =
  let c = Interp.of_points [ (2., 30.); (0., 0.); (1., 10.) ] in
  check_float "sorted internally" 5. (Interp.eval c 0.5)

let test_interp_duplicate_x () =
  Alcotest.check_raises "duplicate x" (Invalid_argument "Interp.of_points: duplicate x")
    (fun () -> ignore (Interp.of_points [ (1., 1.); (1., 2.) ]))

let test_interp_slope () =
  let c = Interp.of_points [ (0., 0.); (1., 10.); (2., 30.) ] in
  check_float "slope 1st" 10. (Interp.slope_at c 0.5);
  check_float "slope 2nd" 20. (Interp.slope_at c 1.5)

let test_interp_inverse () =
  let c = Interp.of_points [ (0., 0.); (1., 10.); (2., 30.) ] in
  check_float "inverse" 1.5 (Interp.inverse_eval c 20.);
  let d = Interp.of_points [ (0., 30.); (1., 10.); (2., 0.) ] in
  check_float "inverse decreasing" 0.5 (Interp.inverse_eval d 20.)

let test_interp_inverse_nonmonotone () =
  let c = Interp.of_points [ (0., 0.); (1., 10.); (2., 5.) ] in
  Alcotest.check_raises "nonmonotone"
    (Invalid_argument "Interp.inverse_eval: curve is not strictly monotone")
    (fun () -> ignore (Interp.inverse_eval c 3.))

let test_linear_fit () =
  let a, b = Interp.linear_fit [ (0., 1.); (1., 3.); (2., 5.) ] in
  check_float "slope" 2. a;
  check_float "intercept" 1. b

(* ---------- U32 ---------- *)

let test_u32_add_wrap () =
  Alcotest.(check int) "wrap" 0 (U32.add 0xFFFF_FFFF 1);
  Alcotest.(check int) "plain" 7 (U32.add 3 4)

let test_u32_sub_wrap () =
  Alcotest.(check int) "wrap" 0xFFFF_FFFF (U32.sub 0 1);
  Alcotest.(check int) "plain" 1 (U32.sub 4 3)

let test_u32_mul () =
  Alcotest.(check int) "low bits" 0xFFFF_FFFE (U32.mul 0xFFFF_FFFF 2);
  Alcotest.(check int) "large" ((0xDEAD * 0xBEEF) land 0xFFFF_FFFF) (U32.mul 0xDEAD 0xBEEF);
  Alcotest.(check int) "square wrap"
    (Int64.to_int (Int64.logand (Int64.mul 0x89ABCDEFL 0x89ABCDEFL) 0xFFFFFFFFL))
    (U32.mul 0x89ABCDEF 0x89ABCDEF)

let test_u32_signed_roundtrip () =
  Alcotest.(check int) "neg" (-1) (U32.to_signed 0xFFFF_FFFF);
  Alcotest.(check int) "min" (-0x8000_0000) (U32.to_signed 0x8000_0000);
  Alcotest.(check int) "pos" 5 (U32.to_signed 5);
  Alcotest.(check int) "back" 0xFFFF_FFFB (U32.of_signed (-5))

let test_u32_shifts () =
  Alcotest.(check int) "sll" 0xFFFF_FFFE (U32.shift_left 0xFFFF_FFFF 1);
  Alcotest.(check int) "srl" 0x7FFF_FFFF (U32.shift_right_logical 0xFFFF_FFFE 1);
  Alcotest.(check int) "sra" 0xFFFF_FFFF (U32.shift_right_arith 0xFFFF_FFFF 1);
  Alcotest.(check int) "sra pos" 0x3FFF_FFFF (U32.shift_right_arith 0x7FFF_FFFF 1);
  Alcotest.(check int) "amount mod 32" 0xFFFF_FFFF (U32.shift_left 0xFFFF_FFFF 32)

let test_u32_sext () =
  Alcotest.(check int) "16-bit neg" 0xFFFF_8000 (U32.sext ~bits:16 0x8000);
  Alcotest.(check int) "16-bit pos" 0x7FFF (U32.sext ~bits:16 0x7FFF);
  Alcotest.(check int) "8-bit neg" 0xFFFF_FF80 (U32.sext ~bits:8 0x80)

let test_u32_bits () =
  Alcotest.(check bool) "bit set" true (U32.bit 0b100 2);
  Alcotest.(check bool) "bit clear" false (U32.bit 0b100 1);
  Alcotest.(check int) "set_bit" 0b101 (U32.set_bit 0b100 0 true);
  Alcotest.(check int) "clear_bit" 0b000 (U32.set_bit 0b100 2 false);
  Alcotest.(check int) "flip" 0b110 (U32.flip_bits 0b101 ~mask:0b011);
  Alcotest.(check int) "popcount" 3 (U32.popcount 0b10101)

let test_u32_compare () =
  Alcotest.(check bool) "ltu" true (U32.lt_u 1 0xFFFF_FFFF);
  Alcotest.(check bool) "lts" false (U32.lt_s 1 0xFFFF_FFFF);
  Alcotest.(check bool) "lts neg" true (U32.lt_s 0xFFFF_FFFF 1)

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~title:"T" [ ("col", Table.Left); ("n", Table.Right) ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "right aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "a     1"))

let test_table_arity () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_csv () =
  let t = Table.create ~title:"ignored" [ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "plain"; "1,5" ];
  Table.add_row t [ "quo\"te"; "x" ];
  Alcotest.(check string) "csv"
    "a,b\nplain,\"1,5\"\n\"quo\"\"te\",x\n"
    (Table.to_csv t)

let test_table_formats () =
  Alcotest.(check string) "float" "1.500" (Table.fmt_float 1.5);
  Alcotest.(check string) "nan" "n/a" (Table.fmt_float nan);
  Alcotest.(check string) "pct" "50.0%" (Table.fmt_pct 0.5);
  Alcotest.(check string) "sci" "1.5e+06" (Table.fmt_sci 1.5e6)

(* ---------- Op_class ---------- *)

let test_op_class_apply () =
  let open Op_class in
  Alcotest.(check int) "add" 5 (apply Add 2 3);
  Alcotest.(check int) "sub wrap" 0xFFFF_FFFF (apply Sub 2 3);
  Alcotest.(check int) "mul" 6 (apply Mul 2 3);
  Alcotest.(check int) "sll" 16 (apply Sll 1 4);
  Alcotest.(check int) "srl" 0x7FFF_FFFF (apply Srl 0xFFFF_FFFF 1);
  Alcotest.(check int) "sra" 0xFFFF_FFFF (apply Sra 0xFFFF_FFFF 1);
  Alcotest.(check int) "and" 0b100 (apply And_ 0b110 0b101);
  Alcotest.(check int) "or" 0b111 (apply Or_ 0b110 0b101);
  Alcotest.(check int) "xor" 0b011 (apply Xor_ 0b110 0b101)

let test_op_class_names_roundtrip () =
  List.iter
    (fun c ->
      match Op_class.of_name (Op_class.name c) with
      | Some c' -> Alcotest.(check bool) "roundtrip" true (c = c')
      | None -> Alcotest.fail "name not parsed")
    Op_class.all

let test_op_class_index_dense () =
  List.iteri
    (fun i c -> Alcotest.(check int) "index" i (Op_class.index c))
    Op_class.all;
  Alcotest.(check int) "count" (List.length Op_class.all) Op_class.count

(* ---------- Pool ---------- *)

let test_pool_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let ys = Pool.map pool (fun x -> x * x) xs in
      Alcotest.(check (array int)) "squares in order" (Array.init 100 (fun i -> i * i)) ys)

let test_pool_map_serial_matches_parallel () =
  let xs = Array.init 50 (fun i -> i - 25) in
  let f x = (x * 7919) lxor (x lsl 3) in
  let serial = Pool.with_pool ~jobs:1 (fun p -> Pool.map p f xs) in
  let parallel = Pool.with_pool ~jobs:4 (fun p -> Pool.map p f xs) in
  Alcotest.(check (array int)) "jobs=1 = jobs=4" serial parallel

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "raises" (Failure "boom") (fun () ->
          ignore (Pool.map pool (fun x -> if x = 13 then failwith "boom" else x)
                    (Array.init 32 Fun.id)));
      (* The pool must survive a failed batch and serve later ones. *)
      let ys = Pool.map pool (fun x -> x + 1) (Array.init 8 Fun.id) in
      Alcotest.(check (array int)) "pool reusable after exn"
        (Array.init 8 (fun i -> i + 1)) ys)

let test_pool_reuse_across_batches () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for batch = 1 to 5 do
        let ys = Pool.parallel_init pool (batch * 10) (fun i -> i * batch) in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" batch)
          (Array.init (batch * 10) (fun i -> i * batch))
          ys
      done)

let test_pool_parallel_init_empty () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Pool.parallel_init pool 0 Fun.id))

let test_pool_map_list () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "list order" [ 2; 4; 6; 8 ]
        (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3; 4 ]))

let test_pool_default_jobs_override () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 3;
      Alcotest.(check int) "override wins" 3 (Pool.default_jobs ());
      Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1))

(* ---------- Property tests ---------- *)

let prop_u32_mul_matches_int64 =
  QCheck.Test.make ~name:"u32 mul matches int64 reference" ~count:1000
    QCheck.(pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
    (fun (a, b) ->
      let a = U32.of_int (a * 7919) and b = U32.of_int (b * 104729) in
      let expected =
        Int64.to_int
          (Int64.logand
             (Int64.mul (Int64.of_int a) (Int64.of_int b))
             0xFFFFFFFFL)
      in
      U32.mul a b = expected)

let prop_u32_sext_idempotent =
  QCheck.Test.make ~name:"sext is idempotent" ~count:500
    QCheck.(pair (int_range 1 32) int)
    (fun (bits, v) ->
      let once = U32.sext ~bits v in
      U32.sext ~bits:32 once = once)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun xs ->
      let xs = Array.of_list xs in
      let p1 = Stats.percentile xs 20. and p2 = Stats.percentile xs 80. in
      p1 <= p2 +. 1e-9)

let prop_interp_hits_anchors =
  QCheck.Test.make ~name:"interp passes through anchors" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 8) (pair (float_range 0. 100.) (float_range (-5.) 5.)))
    (fun pts ->
      let dedup =
        List.sort_uniq (fun (x1, _) (x2, _) -> compare x1 x2) pts
      in
      QCheck.assume (List.length dedup >= 2);
      let c = Interp.of_points dedup in
      List.for_all (fun (x, y) -> abs_float (Interp.eval c x -. y) < 1e-9) dedup)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_u32_mul_matches_int64;
        prop_u32_sext_idempotent;
        prop_percentile_monotone;
        prop_interp_hits_anchors;
      ]
  in
  Alcotest.run "sfi_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "gaussian clipped" `Quick test_gaussian_clipped;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "mean empty" `Quick test_stats_mean_empty;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "variance singleton" `Quick test_stats_variance_singleton;
          Alcotest.test_case "median odd" `Quick test_stats_median_odd;
          Alcotest.test_case "median even" `Quick test_stats_median_even;
          Alcotest.test_case "median pure" `Quick test_stats_median_does_not_mutate;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "fraction" `Quick test_stats_fraction;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "ci95" `Quick test_stats_ci;
          Alcotest.test_case "wilson interval" `Quick test_stats_wilson;
          Alcotest.test_case "empty inputs are total" `Quick test_stats_empty_totals;
          Alcotest.test_case "singleton inputs are total" `Quick
            test_stats_singleton_totals;
          Alcotest.test_case "percentile clamps p" `Quick test_stats_percentile_clamps;
        ] );
      ( "interp",
        [
          Alcotest.test_case "eval" `Quick test_interp_eval;
          Alcotest.test_case "unsorted input" `Quick test_interp_unsorted_input;
          Alcotest.test_case "duplicate x" `Quick test_interp_duplicate_x;
          Alcotest.test_case "slope" `Quick test_interp_slope;
          Alcotest.test_case "inverse" `Quick test_interp_inverse;
          Alcotest.test_case "inverse nonmonotone" `Quick test_interp_inverse_nonmonotone;
          Alcotest.test_case "linear fit" `Quick test_linear_fit;
        ] );
      ( "u32",
        [
          Alcotest.test_case "add wrap" `Quick test_u32_add_wrap;
          Alcotest.test_case "sub wrap" `Quick test_u32_sub_wrap;
          Alcotest.test_case "mul" `Quick test_u32_mul;
          Alcotest.test_case "signed roundtrip" `Quick test_u32_signed_roundtrip;
          Alcotest.test_case "shifts" `Quick test_u32_shifts;
          Alcotest.test_case "sext" `Quick test_u32_sext;
          Alcotest.test_case "bit ops" `Quick test_u32_bits;
          Alcotest.test_case "compare" `Quick test_u32_compare;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "serial matches parallel" `Quick
            test_pool_map_serial_matches_parallel;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "reuse across batches" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "parallel_init empty" `Quick test_pool_parallel_init_empty;
          Alcotest.test_case "map_list" `Quick test_pool_map_list;
          Alcotest.test_case "default jobs override" `Quick test_pool_default_jobs_override;
        ] );
      ( "op_class",
        [
          Alcotest.test_case "apply" `Quick test_op_class_apply;
          Alcotest.test_case "names roundtrip" `Quick test_op_class_names_roundtrip;
          Alcotest.test_case "index dense" `Quick test_op_class_index_dense;
        ] );
      ("properties", qsuite);
    ]
