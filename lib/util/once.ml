type ('k, 'v) t = { lock : Mutex.t; cells : ('k, Mutex.t * 'v option ref) Hashtbl.t }

let create () = { lock = Mutex.create (); cells = Hashtbl.create 8 }

let get ?(on_hit = ignore) t k compute =
  let lock, cell =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.cells k with
        | Some c -> c
        | None ->
          let c = (Mutex.create (), ref None) in
          Hashtbl.replace t.cells k c;
          c)
  in
  Mutex.protect lock (fun () ->
      match !cell with
      | Some v ->
        on_hit ();
        v
      | None ->
        let v = compute () in
        cell := Some v;
        v)
