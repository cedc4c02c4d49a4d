(* Tests for the batch audit service: the JSON line codec, the result
   payload codec with its re-validation, and the hit/warm/miss
   temperature contract — a warm or hit response must come back with
   zero sweep cases executed. *)

let counter = ref 0

let fresh_cache () =
  incr counter;
  Cache.open_dir
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "glitch-serve-test.%d.%d" (Unix.getpid ()) !counter))

(* --- JSON codec ----------------------------------------------------------- *)

let json_roundtrip () =
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' ->
        Alcotest.(check string)
          (Printf.sprintf "stable through %s" s)
          s (Json.to_string v')
      | Error e -> Alcotest.failf "%s failed to reparse: %s" s e)
    [ Json.Null; Json.Bool true; Json.Bool false; Json.Int 0; Json.Int (-42);
      Json.Int 65536; Json.Float 1.5; Json.String "";
      Json.String "with \"quotes\" and \\ and \ncontrol \tbytes";
      Json.List [ Json.Int 1; Json.Null; Json.String "x" ];
      Json.Obj
        [ ("id", Json.Int 3); ("nested", Json.Obj [ ("a", Json.List []) ]);
          ("s", Json.String "v") ] ]

let json_parses_foreign_input () =
  (* input the compact printer would not itself produce *)
  List.iter
    (fun (input, expect) ->
      match Json.of_string input with
      | Ok v -> Alcotest.(check string) input expect (Json.to_string v)
      | Error e -> Alcotest.failf "%S rejected: %s" input e)
    [ ("  { \"a\" : [ 1 , 2 ] }  ", {|{"a":[1,2]}|});
      ({|"Aé"|}, {|"A|} ^ "\xc3\xa9" ^ {|"|});
      ("-0", "0"); ("1e2", "100.0"); ("true", "true") ]

let json_rejects_malformed () =
  List.iter
    (fun input ->
      match Json.of_string input with
      | Ok v ->
        Alcotest.failf "%S parsed as %s" input (Json.to_string v)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "nul"; "1 2";
      "{\"a\":1,}"; "[1] trailing"; "\"bad \\x escape\"" ]

let json_accessors () =
  let v = Json.Obj [ ("s", Json.String "x"); ("n", Json.Int 7);
                     ("b", Json.Bool true) ] in
  Alcotest.(check (option string)) "string member" (Some "x")
    (Option.bind (Json.member "s" v) Json.string_value);
  Alcotest.(check (option int)) "int member" (Some 7)
    (Option.bind (Json.member "n" v) Json.int_value);
  Alcotest.(check (option bool)) "bool member" (Some true)
    (Option.bind (Json.member "b" v) Json.bool_value);
  Alcotest.(check bool) "missing member" true (Json.member "zz" v = None);
  Alcotest.(check bool) "member of non-object" true
    (Json.member "a" (Json.Int 3) = None)

(* --- result payload codec -------------------------------------------------- *)

let beq = Option.get (Service.find_case "beq")
let config = Glitch_emu.Campaign.default_config Glitch_emu.Fault_model.And

let payload_roundtrip () =
  let r = Glitch_emu.Campaign.run_case config beq in
  match Service.decode_result config beq (Service.encode_result r) with
  | None -> Alcotest.fail "intact payload rejected"
  | Some r' ->
    Alcotest.(check bool) "by_weight preserved" true
      (r.by_weight = r'.by_weight);
    Alcotest.(check bool) "totals preserved" true (r.totals = r'.totals);
    Alcotest.(check int) "decoded results execute nothing" 0
      r'.stats.executed;
    Alcotest.(check int) "decoded results are fully memoized" 65536
      r'.stats.memoized

let payload_revalidation_rejects () =
  let r = Glitch_emu.Campaign.run_case config beq in
  let good = Service.encode_result r in
  let nums = String.split_on_char ' ' good |> List.filter (fun s -> s <> "") in
  let rejoin l = String.concat " " l in
  let bump_first l =
    match l with
    | x :: rest -> string_of_int (int_of_string x + 1) :: rest
    | [] -> []
  in
  List.iter
    (fun (name, payload) ->
      Alcotest.(check bool) name true
        (Service.decode_result config beq payload = None))
    [ ("empty", ""); ("garbage", "not numbers at all");
      ("truncated", rejoin (List.filteri (fun i _ -> i < 50) nums));
      ("extra field", rejoin (nums @ [ "0" ]));
      ("negative count", rejoin ("-1" :: List.tl nums));
      (* breaks counts-sum-to-2^16 and the totals re-derivation *)
      ("inconsistent counts", rejoin (bump_first nums)) ]

(* --- service temperature --------------------------------------------------- *)

let svc_request svc line =
  match Json.of_string (Service.handle_line svc line) with
  | Ok v -> v
  | Error e -> Alcotest.failf "response is not JSON: %s" e

let field_int resp name =
  match Option.bind (Json.member name resp) Json.int_value with
  | Some n -> n
  | None -> Alcotest.failf "response lacks int field %S" name

let field_string resp name =
  match Option.bind (Json.member name resp) Json.string_value with
  | Some s -> s
  | None -> Alcotest.failf "response lacks string field %S" name

let check_ok resp =
  Alcotest.(check (option bool)) "ok" (Some true)
    (Option.bind (Json.member "ok" resp) Json.bool_value)

let warm_store_executes_nothing () =
  let svc = Service.create () in
  let r1 = svc_request svc {|{"id": 1, "case": "beq"}|} in
  check_ok r1;
  Alcotest.(check string) "first is a miss" "miss" (field_string r1 "cache");
  Alcotest.(check bool) "first run executes" true (field_int r1 "executed" > 0);
  Alcotest.(check int) "conservation" 65536
    (field_int r1 "executed" + field_int r1 "memoized");
  let r2 = svc_request svc {|{"id": 2, "case": "beq"}|} in
  Alcotest.(check string) "second is warm" "warm" (field_string r2 "cache");
  Alcotest.(check int) "warm executes nothing" 0 (field_int r2 "executed");
  Alcotest.(check int) "warm serves every mask" 65536 (field_int r2 "memoized");
  (* a different model is a different key: back to a miss *)
  let r3 = svc_request svc {|{"id": 3, "case": "beq", "model": "or"}|} in
  Alcotest.(check string) "other model misses" "miss" (field_string r3 "cache")

let persistent_cache_hits_across_services () =
  let cache = fresh_cache () in
  let svc1 = Service.create ~cache () in
  let r1 = svc_request svc1 {|{"id": 1, "case": "bne", "model": "or"}|} in
  check_ok r1;
  Alcotest.(check string) "cold cache misses" "miss" (field_string r1 "cache");
  (* a fresh service (fresh in-session stores) over the same directory:
     only the persistent cache can explain a zero-execution answer *)
  let svc2 = Service.create ~cache () in
  let r2 = svc_request svc2 {|{"id": 2, "case": "bne", "model": "or"}|} in
  check_ok r2;
  Alcotest.(check string) "warm cache hits" "hit" (field_string r2 "cache");
  Alcotest.(check int) "hit executes nothing" 0 (field_int r2 "executed");
  Alcotest.(check bool) "tables identical" true
    (Json.member "totals" r1 = Json.member "totals" r2
    && Json.member "by_weight" r1 = Json.member "by_weight" r2)

let corrupted_cache_entry_reruns () =
  let cache = fresh_cache () in
  let svc = Service.create ~cache () in
  let r1 = svc_request svc {|{"case": "beq"}|} in
  check_ok r1;
  (* clobber every entry in the cache directory with garbage *)
  let dir = Cache.dir cache in
  Array.iter
    (fun sub ->
      let subdir = Filename.concat dir sub in
      if Sys.is_directory subdir then
        Array.iter
          (fun f ->
            let oc = open_out_bin (Filename.concat subdir f) in
            output_string oc "glitch-cache 1\ncorrupted beyond repair\n";
            close_out oc)
          (Sys.readdir subdir))
    (Sys.readdir dir);
  let svc2 = Service.create ~cache () in
  let r2 = svc_request svc2 {|{"case": "beq"}|} in
  check_ok r2;
  Alcotest.(check string) "corrupt entry is a miss" "miss"
    (field_string r2 "cache");
  Alcotest.(check bool) "tables re-derived identically" true
    (Json.member "totals" r1 = Json.member "totals" r2)

let service_matches_direct_campaign () =
  let svc = Service.create () in
  let resp = svc_request svc {|{"case": "beq"}|} in
  let direct = Glitch_emu.Campaign.run_case config beq in
  List.iter
    (fun cat ->
      let name = Glitch_emu.Campaign.category_name cat in
      let got =
        Option.bind (Json.member "totals" resp) (fun t ->
            Option.bind (Json.member name t) Json.int_value)
      in
      Alcotest.(check (option int)) name
        (Some direct.totals.(Glitch_emu.Campaign.category_index cat))
        got)
    Glitch_emu.Campaign.categories

(* --- request errors -------------------------------------------------------- *)

let errors_answer_instead_of_crashing () =
  let svc = Service.create () in
  List.iter
    (fun (line, expect_id) ->
      let resp = svc_request svc line in
      Alcotest.(check (option bool)) (line ^ " not ok") (Some false)
        (Option.bind (Json.member "ok" resp) Json.bool_value);
      Alcotest.(check bool) (line ^ " has an error") true
        (Json.member "error" resp <> None);
      Alcotest.(check bool) (line ^ " echoes id") true
        (Json.member "id" resp = Some expect_id))
    [ ("this is not json", Json.Null);
      ("{}", Json.Null);
      ({|{"id": 9, "case": "no-such-case"}|}, Json.Int 9);
      ({|{"id": 10, "case": 3}|}, Json.Int 10);
      ({|{"id": 11, "case": "beq", "model": "nand"}|}, Json.Int 11);
      ({|[1,2,3]|}, Json.Null) ]

let find_case_is_case_insensitive () =
  Alcotest.(check bool) "beq" true (Service.find_case "beq" <> None);
  Alcotest.(check bool) "BEQ" true (Service.find_case "BEQ" <> None);
  Alcotest.(check bool) "non-branch ldrb" true
    (Service.find_case "ldrb" <> None);
  Alcotest.(check bool) "unknown" true (Service.find_case "nope" = None)

let () =
  Alcotest.run "serve"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick json_roundtrip;
         Alcotest.test_case "foreign input" `Quick json_parses_foreign_input;
         Alcotest.test_case "malformed rejected" `Quick json_rejects_malformed;
         Alcotest.test_case "accessors" `Quick json_accessors ]);
      ("payload",
       [ Alcotest.test_case "roundtrip" `Quick payload_roundtrip;
         Alcotest.test_case "re-validation rejects" `Quick
           payload_revalidation_rejects ]);
      ("temperature",
       [ Alcotest.test_case "warm store executes nothing" `Quick
           warm_store_executes_nothing;
         Alcotest.test_case "persistent cache hits across services" `Quick
           persistent_cache_hits_across_services;
         Alcotest.test_case "corrupted entry reruns" `Quick
           corrupted_cache_entry_reruns;
         Alcotest.test_case "matches direct campaign" `Quick
           service_matches_direct_campaign ]);
      ("errors",
       [ Alcotest.test_case "errors answer, never crash" `Quick
           errors_answer_instead_of_crashing;
         Alcotest.test_case "find_case case-insensitive" `Quick
           find_case_is_case_insensitive ]) ]
