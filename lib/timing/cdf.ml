type t = float array (* sorted ascending *)

(* A NaN sample would sort to an arbitrary position under any
   comparator and silently poison every quantile/probability query
   downstream; fail loudly instead. *)
let of_samples_owned ys =
  if Array.length ys = 0 then invalid_arg "Cdf.of_samples: empty";
  Array.iter (fun x -> if Float.is_nan x then invalid_arg "Cdf.of_samples: NaN sample") ys;
  Array.sort Float.compare ys;
  ys

let of_samples xs = of_samples_owned (Array.copy xs)

let n t = Array.length t

let min_value t = t.(0)

let max_value t = t.(Array.length t - 1)

(* Number of samples <= x. *)
let count_leq (t : float array) (x : float) =
  let lo = ref 0 and hi = ref (Array.length t) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let prob_greater t x =
  float_of_int (Array.length t - count_leq t x) /. float_of_int (Array.length t)

let prob_leq t x = 1. -. prob_greater t x

let quantile t q =
  if q <= 0. then t.(0)
  else if q >= 1. then t.(Array.length t - 1)
  else begin
    let n = Array.length t in
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    t.(max 0 (min (n - 1) k))
  end

let mean t = Array.fold_left ( +. ) 0. t /. float_of_int (Array.length t)

let samples t = t
