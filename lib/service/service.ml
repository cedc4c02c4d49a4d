open Glitch_emu

(* Bump whenever the sweep semantics change (taxonomy, rig geometry,
   classification rules): cache entries written by a different code
   version must never be served. The version participates in every
   cache key, so stale entries simply stop being addressable. *)
let code_version = "campaign-v1"

let width = 16
let nmasks = 1 lsl width
let ncat = List.length Campaign.categories

let cache_key (config : Campaign.config) (case : Testcase.t) =
  Cache.key
    ~parts:
      [ "campaign";
        code_version;
        Bytes.to_string (Thumb.Encode.to_bytes case.instrs);
        string_of_int case.target_index;
        Glitch_emu.Fault_model.name config.flip;
        string_of_bool config.zero_is_invalid;
        string_of_int config.max_steps ]

(* --- result payload codec --------------------------------------------- *)

(* 17 by-weight rows of 6 counts, then the 6 totals, space-separated.
   Decoding re-validates the campaign invariants (counts sum to 2^16,
   totals re-derivable from the rows), so a payload that passed the
   cache's integrity digest but was written by a buggy producer still
   loads as a miss rather than as a wrong table. *)
let encode_result (r : Campaign.result) =
  let b = Buffer.create 1024 in
  let row counts =
    Array.iter
      (fun n ->
        Buffer.add_string b (string_of_int n);
        Buffer.add_char b ' ')
      counts
  in
  Array.iter row r.by_weight;
  row r.totals;
  Buffer.contents b

let decode_result (config : Campaign.config) (case : Testcase.t) payload =
  let fields =
    String.split_on_char ' ' payload |> List.filter (fun s -> s <> "")
  in
  let expected = ((width + 1) * ncat) + ncat in
  match List.map int_of_string_opt fields with
  | ints when List.length ints = expected && List.for_all (fun i -> i <> None) ints
    ->
    let ints = Array.of_list (List.map Option.get ints) in
    if Array.exists (fun n -> n < 0) ints then None
    else
      let by_weight =
        Array.init (width + 1) (fun w ->
            Array.init ncat (fun i -> ints.((w * ncat) + i)))
      in
      let totals = Array.init ncat (fun i -> ints.(((width + 1) * ncat) + i)) in
      let total_masks =
        Array.fold_left
          (fun acc row -> acc + Array.fold_left ( + ) 0 row)
          0 by_weight
      in
      let rederived i =
        let sum = ref 0 in
        for w = 1 to width do
          sum := !sum + by_weight.(w).(i)
        done;
        !sum
      in
      let consistent =
        total_masks = nmasks
        && Array.for_all Fun.id (Array.init ncat (fun i -> totals.(i) = rederived i))
      in
      if not consistent then None
      else
        Some
          { Campaign.case;
            config;
            by_weight;
            totals;
            stats = { executed = 0; memoized = nmasks } }
  | _ -> None

(* --- the service ------------------------------------------------------- *)

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

let run_case t config case =
  let key = cache_key config case in
  let cached =
    match t.cache with
    | None -> None
    | Some c ->
      Option.bind (Cache.load c ~key) (decode_result config case)
  in
  match cached with
  | Some r -> (r, Hit)
  | None ->
    let store =
      match Hashtbl.find_opt t.stores key with
      | Some s -> s
      | None ->
        let s = Campaign.make_store () in
        Hashtbl.add t.stores key s;
        s
    in
    let r = Campaign.run_case ?pool:t.pool ~store config case in
    Option.iter (fun c -> Cache.store c ~key (encode_result r)) t.cache;
    (r, if r.Campaign.stats.executed = 0 then Warm else Miss)

(* --- the line protocol -------------------------------------------------- *)

let all_cases = Testcase.all_conditional_branches @ Testcase.non_branch_cases

let find_case name =
  let needle = String.lowercase_ascii name in
  List.find_opt
    (fun (c : Testcase.t) -> String.lowercase_ascii c.name = needle)
    all_cases

let model_of_string s =
  match String.lowercase_ascii s with
  | "and" -> Some Glitch_emu.Fault_model.And
  | "or" -> Some Glitch_emu.Fault_model.Or
  | "xor" -> Some Glitch_emu.Fault_model.Xor
  | _ -> None

(* Sweep cost grows linearly with the per-run step budget, so one
   request must not be able to ask for an unbounded one. *)
let max_steps_limit = 100_000

type request = {
  req_id : Json.t;
  req_case : Testcase.t;
  req_config : Campaign.config;
}

let parse_request json =
  let id = Option.value ~default:Json.Null (Json.member "id" json) in
  let str name = Option.bind (Json.member name json) Json.string_value in
  match str "case" with
  | None -> Error (id, "missing required string field \"case\"")
  | Some case_name -> (
    match find_case case_name with
    | None -> Error (id, Printf.sprintf "unknown case %S" case_name)
    | Some case -> (
      match
        Option.value ~default:(Some Glitch_emu.Fault_model.And)
          (Option.map model_of_string (str "model"))
      with
      | None -> Error (id, "unknown model (expected and, or, xor)")
      | Some model ->
        let config = Campaign.default_config model in
        let config =
          match Option.bind (Json.member "zero_is_invalid" json) Json.bool_value
          with
          | Some z -> { config with Campaign.zero_is_invalid = z }
          | None -> config
        in
        match Option.bind (Json.member "max_steps" json) Json.int_value with
        | Some n when n > max_steps_limit ->
          Error
            (id, Printf.sprintf "max_steps %d exceeds the limit %d" n max_steps_limit)
        | max_steps ->
          let config =
            match max_steps with
            | Some n when n > 0 -> { config with Campaign.max_steps = n }
            | Some _ | None -> config
          in
          Ok { req_id = id; req_case = case; req_config = config }))

let error_response id msg =
  Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.String msg) ]

let response req (r : Campaign.result) status elapsed_s =
  let totals =
    List.map
      (fun cat ->
        ( Campaign.category_name cat,
          Json.Int r.totals.(Campaign.category_index cat) ))
      Campaign.categories
  in
  let by_weight =
    Array.to_list r.by_weight
    |> List.map (fun row ->
           Json.List (Array.to_list row |> List.map (fun n -> Json.Int n)))
  in
  Json.Obj
    [ ("id", req.req_id);
      ("ok", Json.Bool true);
      ("case", Json.String req.req_case.name);
      ("model", Json.String (Glitch_emu.Fault_model.name req.req_config.flip));
      ("cache", Json.String (status_name status));
      ("executed", Json.Int r.stats.executed);
      ("memoized", Json.Int r.stats.memoized);
      ("elapsed_s", Json.Float elapsed_s);
      ("totals", Json.Obj totals);
      ("by_weight", Json.List by_weight) ]

let handle_request t json =
  match parse_request json with
  | Error (id, msg) -> error_response id msg
  | Ok req ->
    let (r, status), elapsed_s =
      Stats.Perf.time (fun () -> run_case t req.req_config req.req_case)
    in
    response req r status elapsed_s

let handle_line t line =
  let response =
    match Json.of_string line with
    | Error msg -> error_response Json.Null ("invalid JSON: " ^ msg)
    | Ok json -> handle_request t json
  in
  Json.to_string response
