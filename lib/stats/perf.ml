type value = Count of int | Ratio of float | Seconds of float

type t = {
  label : string;
  jobs : int;
  items : int;
  elapsed_s : float;
  counters : (string * value) list;
}

let time f =
  let t0 = Monotonic_clock.now () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)

let split ~rate (a, x) (b, y) =
  let r = if x + y = 0 then 0. else float_of_int y /. float_of_int (x + y) in
  [ (a, Count x); (b, Count y); (rate, Ratio r) ]

let make ~label ?pool ~items counters elapsed_s =
  match pool with
  | None -> { label; jobs = 1; items; elapsed_s; counters }
  | Some p ->
    let jobs = Runtime.Pool.jobs p in
    let s = Runtime.Pool.stats p in
    Runtime.Pool.reset_stats p;
    { label;
      jobs;
      items;
      elapsed_s;
      counters =
        counters
        @ [ ("wait_s", Seconds (Runtime.Pool.stats_wait ~jobs s));
            ("utilization", Ratio (Runtime.Pool.stats_utilization ~jobs s)) ] }

let throughput t =
  if t.elapsed_s <= 0. then 0. else float_of_int t.items /. t.elapsed_s

let value_string = function
  | Count n -> string_of_int n
  | Ratio r -> Printf.sprintf "%.4f" r
  | Seconds s -> Printf.sprintf "%.3f" s

let machine_line t =
  String.concat " "
    (Printf.sprintf "PERF experiment=%s jobs=%d items=%d seconds=%.3f rate=%.1f"
       t.label t.jobs t.items t.elapsed_s (throughput t)
    :: List.map (fun (k, v) -> k ^ "=" ^ value_string v) t.counters)

let to_json t =
  Json.Obj
    ([ ("label", Json.String t.label);
       ("jobs", Json.Int t.jobs);
       ("items", Json.Int t.items);
       ("seconds", Json.Float t.elapsed_s);
       ("rate", Json.Float (throughput t)) ]
    @ List.map
        (fun (k, v) ->
          ( k,
            match v with
            | Count n -> Json.Int n
            | Ratio f | Seconds f -> Json.Float f ))
        t.counters)

let pp_value ppf = function
  | Count n -> Fmt.int ppf n
  | Ratio r -> Fmt.pf ppf "%.1f%%" (100. *. r)
  | Seconds s -> Fmt.pf ppf "%.2fs" s

let pp ppf t =
  Fmt.pf ppf "%s: %d items in %.2fs (%.0f items/s, %d job%s" t.label t.items
    t.elapsed_s (throughput t) t.jobs
    (if t.jobs = 1 then "" else "s");
  List.iter (fun (k, v) -> Fmt.pf ppf ", %s %a" k pp_value v) t.counters;
  Fmt.pf ppf ")"
