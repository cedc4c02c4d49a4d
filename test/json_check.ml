(* Shared assertion for the machine-readable reports: an emitter's
   output must parse with the codec and re-print byte-identically. *)

let roundtrip name j =
  let s = Json.to_string j in
  match Json.of_string s with
  | Ok j' -> Alcotest.(check string) (name ^ " re-prints identically") s (Json.to_string j')
  | Error e -> Alcotest.failf "%s does not re-parse: %s\n%s" name e s

(* [j] with field [name] replaced by [f] of its value. *)
let edit name f = function
  | Json.Obj kv -> Json.Obj (List.map (fun (k, v) -> (k, if k = name then f v else v)) kv)
  | j -> j

(* A JSON list with [f] applied to its first element. *)
let edit_first f = function Json.List (x :: rest) -> Json.List (f x :: rest) | j -> j

let bump = function Json.Int n -> Json.Int (n + 1) | j -> j

(* Cache-entry corruption: [good] (a result's report) mangled as text
   (empty, garbage, truncated) and as JSON (an extra field, a missing
   field, reordered fields), plus the decoder-specific [broken]
   reports, each stored as a cache entry, must be a miss through
   [Cache.memo]. The intact [good] must be a hit. *)
let rejected_as_miss ~of_json ~to_json ~run good broken =
  let dir = Filename.temp_file "json_check_cache" "" in
  Sys.remove dir;
  let cache = Cache.open_dir dir in
  let hit i payload =
    let key = Cache.key (Json.Int i) in
    Cache.store cache ~key payload;
    snd (Cache.memo (Some cache) ~key ~of_json ~to_json run)
  in
  let s = Json.to_string good in
  let fields = match good with Json.Obj kv -> kv | _ -> [] in
  Alcotest.(check bool) "intact report hits" true (hit 0 s);
  List.iteri
    (fun i (name, payload) ->
      Alcotest.(check bool) (name ^ " is a miss") false (hit (i + 1) payload))
    ([ ("empty", ""); ("garbage", "not json at all");
       ("truncated", String.sub s 0 (String.length s / 2));
       ("extra field", Json.to_string (Json.Obj (fields @ [ ("extra", Json.Int 0) ])));
       ("missing field", Json.to_string (Json.Obj (List.tl fields)));
       ("reordered fields", Json.to_string (Json.Obj (List.rev fields))) ]
    @ List.map (fun (name, j) -> (name, Json.to_string j)) broken)
