(* Tests for the stats utilities that every report and bench rides on. *)

let rate_formatting () =
  let s p = Fmt.str "%a" Stats.Rate.pp_pct p in
  Alcotest.(check string) "zero" "0%" (s 0.);
  Alcotest.(check string) "large" "11.35%" (s 11.35);
  Alcotest.(check string) "small" "0.705%" (s 0.705);
  Alcotest.(check string) "tiny" "0.000928%" (s 0.000928);
  Alcotest.(check string) "count+pct" "585 (0.705%)"
    (Fmt.str "%a" Stats.Rate.pp_count_pct (585, 82959))

let rate_pct () =
  Alcotest.(check (float 1e-9)) "simple" 50. (Stats.Rate.pct ~num:1 ~den:2);
  Alcotest.(check (float 1e-9)) "den 0" 0. (Stats.Rate.pct ~num:5 ~den:0)

let contains haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let perf_cycle_counters () =
  let sweep =
    { Hw.Attack.attempts = 10;
      emulated_cycles = 25;
      replayed_cycles = 75;
      tail_cycles = 12;
      boots = 1 }
  in
  let p = Hw.Attack.sweep_perf ~label:"t" sweep 0.5 in
  Alcotest.(check int) "attempts are the items" 10 p.Stats.Perf.items;
  let line = Stats.Perf.machine_line p in
  Alcotest.(check string) "PERF line"
    "PERF experiment=t jobs=1 items=10 seconds=0.500 rate=20.0 \
     booted_cycles=25 replayed_cycles=75 replay_rate=0.7500 tail_cycles=12"
    line;
  let json = Stats.Perf.to_json p in
  Alcotest.(check (option int)) "booted in json" (Some 25)
    (Option.bind (Json.member "booted_cycles" json) Json.int_value);
  Alcotest.(check (option int)) "tail in json" (Some 12)
    (Option.bind (Json.member "tail_cycles" json) Json.int_value);
  Alcotest.(check bool) "replay rate in json" true
    (Json.member "replay_rate" json = Some (Json.Float 0.75));
  Json_check.roundtrip "perf record" json;
  (* an empty split reads 0, not NaN *)
  Alcotest.(check bool) "empty split rate" true
    (List.assoc "hit_rate"
       (Stats.Perf.split ~rate:"hit_rate" ("executed", 0) ("memoized", 0))
    = Stats.Perf.Ratio 0.);
  (* the warm-cache fig2 shape CI greps for *)
  Alcotest.(check bool) "warm fig2 counters" true
    (contains
       (Stats.Perf.machine_line
          (Stats.Perf.make ~label:"fig2" ~items:4063232
             (Stats.Perf.split ~rate:"hit_rate" ("executed", 0)
                ("memoized", 4063232))
             0.01))
       " executed=0 memoized=4063232 hit_rate=1.0000");
  (* a hostile label still round-trips exactly *)
  let label = "g\xc3\xa4rd\"loop\\\n" in
  let json = Stats.Perf.to_json { p with Stats.Perf.label } in
  Json_check.roundtrip "hostile label" json;
  Alcotest.(check (option string)) "label recovered" (Some label)
    (Option.bind
       (Result.to_option (Json.of_string (Json.to_string json)))
       (fun j -> Option.bind (Json.member "label" j) Json.string_value))

let perf_pool_counters () =
  let bare = Stats.Perf.make ~label:"t" ~items:10 [] 1. in
  (* no pool, no pool keys *)
  Alcotest.(check bool) "no pool keys without a pool" false
    (contains (Stats.Perf.machine_line bare) "wait_s=");
  let p =
    { bare with
      Stats.Perf.counters =
        [ ("wait_s", Stats.Perf.Seconds 1.25);
          ("utilization", Stats.Perf.Ratio 0.75) ] }
  in
  let line = Stats.Perf.machine_line p in
  Alcotest.(check bool) "wait in PERF line" true (contains line "wait_s=1.250");
  Alcotest.(check bool) "utilization in PERF line" true
    (contains line "utilization=0.7500");
  let json = Stats.Perf.to_json p in
  Alcotest.(check bool) "wait in json" true
    (Json.member "wait_s" json = Some (Json.Float 1.25));
  Alcotest.(check bool) "utilization in json" true
    (Json.member "utilization" json = Some (Json.Float 0.75));
  Json_check.roundtrip "pool record" json;
  (* a real pool appends its accounting after the caller's counters,
     then starts the next record from zero *)
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      Runtime.Pool.run pool (fun _ -> ignore (Sys.opaque_identity 0));
      let p =
        Stats.Perf.make ~label:"t" ~pool ~items:3
          [ ("executed", Stats.Perf.Count 3) ]
          0.1
      in
      Alcotest.(check int) "jobs from the pool" 2 p.Stats.Perf.jobs;
      Alcotest.(check (list string)) "counter order"
        [ "executed"; "wait_s"; "utilization" ]
        (List.map fst p.Stats.Perf.counters);
      Alcotest.(check int) "pool stats reset" 0
        (Runtime.Pool.stats pool).Runtime.Pool.regions)

let table_layout () =
  let out =
    Stats.Table.render ~header:[ "A"; "Blong"; "C" ]
      [ [ "aaaa"; "b"; "c" ]; [ "x" ] ]
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* all rows align: columns padded to widest member *)
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "rule as wide as header" true
      (String.length rule >= String.length header - 2)
  | _ -> Alcotest.fail "missing lines");
  (* short rows padded, no exception *)
  Alcotest.(check bool) "contains cells" true
    (String.length out > 0)

let () =
  Alcotest.run "stats"
    [ ("rate",
       [ Alcotest.test_case "formatting" `Quick rate_formatting;
         Alcotest.test_case "pct" `Quick rate_pct ]);
      ("perf",
       [ Alcotest.test_case "cycle counters" `Quick perf_cycle_counters;
         Alcotest.test_case "pool counters" `Quick perf_pool_counters ]);
      ("table", [ Alcotest.test_case "layout" `Quick table_layout ]) ]
