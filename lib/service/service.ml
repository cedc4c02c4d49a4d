open Glitch_emu

type status = Hit | Warm | Miss

let status_name = function Hit -> "hit" | Warm -> "warm" | Miss -> "miss"

type t = {
  pool : Runtime.Pool.t option;
  cache : Cache.t option;
  stores : (string, Runtime.Store.t) Hashtbl.t;
      (* in-session shared memo stores, keyed by the same cache key so
         a store is never reused across (config, case) pairs *)
}

let create ?pool ?cache () = { pool; cache; stores = Hashtbl.create 16 }

(* Every input of a sweep. The record patterns are exhaustive, so a new
   config or case field does not compile until it is described here or
   explicitly ignored. *)
let cache_inputs
    ({ flip; zero_is_invalid; max_steps } : Campaign.config)
    ({ name = _; source = _; instrs; target_index } : Testcase.t) =
  Json.List
    [ Json.String "fig2";
      Json.String (Bytes.to_string (Thumb.Encode.to_bytes instrs));
      Json.Int target_index;
      Json.String (Fault_model.name flip);
      Json.Bool zero_is_invalid;
      Json.Int max_steps ]

let run_case t config case =
  let key = Cache.key (cache_inputs config case) in
  let sweep () =
    let store =
      match Hashtbl.find_opt t.stores key with
      | Some s -> s
      | None ->
        let s = Campaign.make_store () in
        Hashtbl.add t.stores key s;
        s
    in
    Campaign.run_case ?pool:t.pool ~store config case
  in
  match
    Cache.memo t.cache ~key ~of_json:(Campaign.of_json config case)
      ~to_json:Campaign.to_json sweep
  with
  | r, true -> (r, Hit)
  | r, false -> (r, if r.stats.executed = 0 then Warm else Miss)

(* --- the line protocol -------------------------------------------------- *)

let all_cases = Testcase.all_conditional_branches @ Testcase.non_branch_cases

let find_case name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun (c : Testcase.t) -> String.lowercase_ascii c.name = needle)
    all_cases

(* Sweep cost grows linearly with the per-run step budget, so one
   request must not be able to ask for an unbounded one. *)
let max_steps_limit = 100_000

let parse_request json =
  let id = Option.value ~default:Json.Null (Json.member "id" json) in
  let required msg = function Some x -> Ok x | None -> Error (id, msg) in
  (* An absent optional field takes its default; a present one must
     parse, or the request is refused naming the field. *)
  let optional name parse ~default ~expected =
    match Json.member name json with
    | None -> Ok default
    | Some v ->
      required (Printf.sprintf "field %S must be %s" name expected) (parse v)
  in
  let ( let* ) = Result.bind in
  let* case_name =
    required "missing required string field \"case\""
      (Option.bind (Json.member "case" json) Json.string_value)
  in
  let* case =
    required (Printf.sprintf "unknown case %S" case_name) (find_case case_name)
  in
  let* flip =
    optional "model" ~default:Fault_model.And ~expected:"one of and, or, xor"
      (fun v ->
        Option.bind (Json.string_value v) (fun m ->
            List.find_opt
              (fun f -> Fault_model.name f = String.uppercase_ascii m)
              Fault_model.all))
  in
  let config = Campaign.default_config flip in
  let* zero_is_invalid =
    optional "zero_is_invalid" Json.bool_value ~default:config.zero_is_invalid
      ~expected:"a boolean"
  in
  let* max_steps =
    optional "max_steps" ~default:config.max_steps
      ~expected:(Printf.sprintf "an integer in 1..%d" max_steps_limit)
      (fun v ->
        Option.bind (Json.int_value v) (fun n ->
            if n >= 1 && n <= max_steps_limit then Some n else None))
  in
  Ok (id, case, { config with zero_is_invalid; max_steps })

let error_response id msg =
  Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.String msg) ]

(* A response is the request's metadata, then the result's own tables
   ([Campaign.to_json]: totals and by_weight). *)
let handle_request t json =
  match parse_request json with
  | Error (id, msg) -> error_response id msg
  | Ok (id, (case : Testcase.t), config) ->
    let (r, status), elapsed_s =
      Stats.Perf.time (fun () -> run_case t config case)
    in
    let tables = match Campaign.to_json r with Json.Obj t -> t | _ -> [] in
    Json.Obj
      ([ ("id", id);
         ("ok", Json.Bool true);
         ("case", Json.String case.name);
         ("model", Json.String (Fault_model.name config.flip));
         ("cache", Json.String (status_name status));
         ("executed", Json.Int r.stats.executed);
         ("memoized", Json.Int r.stats.memoized);
         ("elapsed_s", Json.Float elapsed_s) ]
      @ tables)

let handle_line t line =
  let response =
    match Json.of_string line with
    | Error msg -> error_response Json.Null ("invalid JSON: " ^ msg)
    | Ok json -> handle_request t json
  in
  Json.to_string response
