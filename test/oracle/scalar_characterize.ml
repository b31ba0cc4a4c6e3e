open Sfi_util
open Sfi_netlist
open Sfi_timing

let class_db ~cycles ~rng ~vdd ~vdd_model ~lib ~(profile : Characterize.operand_profile)
    (alu : Alu.t) cls =
  let dta = Dta.create ~vdd ~vdd_model ~lib alu.Alu.circuit in
  (* Select the class once; the select settling cycle is not recorded. *)
  Array.iter (fun (c', net) -> Dta.set_input dta net (c' = cls)) alu.Alu.selects;
  Dta.cycle dta;
  let width = Alu.width in
  let endpoints = alu.Alu.result in
  let cycle_arrivals = Array.make_matrix cycles width 0. in
  let max_settle = ref 0. in
  for k = 0 to cycles - 1 do
    let a, b = profile.Characterize.sample rng in
    Dta.set_input_vec dta alu.Alu.a a;
    Dta.set_input_vec dta alu.Alu.b b;
    Dta.cycle dta;
    let got = Dta.read_vec dta endpoints in
    let expect = Op_class.apply cls a b in
    if got <> expect then
      failwith
        (Printf.sprintf "Scalar_characterize: %s a=%08x b=%08x: got %08x expected %08x"
           (Op_class.name cls) a b got expect);
    let row = cycle_arrivals.(k) in
    for e = 0 to width - 1 do
      let s = Dta.settle_time dta endpoints.(e) in
      row.(e) <- s;
      if s > !max_settle then max_settle := s
    done
  done;
  let column e = Array.init cycles (fun k -> cycle_arrivals.(k).(e)) in
  {
    Characterize.cls;
    profile_name = profile.Characterize.profile_name;
    endpoint_cdfs = Array.init width (fun e -> Cdf.of_samples_owned (column e));
    cycle_arrivals;
    max_settle = !max_settle;
  }

let run ?(cycles = 8000) ?(seed = 0xD7A) ?(setup_ps = Sta.default_setup_ps)
    ?(vdd_model = Vdd_model.default) ?(lib = Cell_lib.default)
    ?(profile_for = fun _ -> Characterize.uniform32) ~vdd alu =
  let root = Rng.of_int seed in
  let classes =
    List.map (fun cls -> (cls, Rng.split root)) Op_class.all
    |> List.map (fun (cls, rng) ->
           class_db ~cycles ~rng ~vdd ~vdd_model ~lib ~profile:(profile_for cls) alu cls)
    |> Array.of_list
  in
  let max_settle =
    Array.fold_left
      (fun acc (c : Characterize.class_db) -> Float.max acc c.Characterize.max_settle)
      0. classes
  in
  { Characterize.vdd; setup_ps; cycles; classes; max_settle }
