(* Replayable counterexamples.

   A corpus entry is a plain Mini-C file whose leading comment lines
   carry the metadata needed to re-run the exact failing check:
   property family, generator seed and pass configuration. Because the
   metadata lives in [//] comments, the whole file still parses as
   Mini-C — the stored source IS the replay input.

   Seeded defects are source patches ([test/mutants/]), not something a
   replay can arm, so a header naming one is refused: the entry would
   otherwise replay against the honest build and pass. Older files
   carry [mutant: none], which is accepted. *)

type entry = {
  property : string;
  seed : int;
  config : Resistor.Config.t;
  message : string;
  source : string;
}

let config_to_string (c : Resistor.Config.t) =
  List.filter (fun d -> List.mem d c.defenses) Resistor.Config.all_defenses
  |> List.map Resistor.Config.defense_to_string
  |> String.concat ","

let config_of_string ~sensitive s =
  let names = if s = "" then [] else String.split_on_char ',' s in
  let known n = Resistor.Config.defense_of_string n <> None in
  match List.find_opt (fun n -> not (known n)) names with
  | Some bad -> Error (Printf.sprintf "unknown defense: %S" bad)
  | None ->
    Ok
      (Resistor.Config.make ~sensitive
         (List.filter_map Resistor.Config.defense_of_string names))

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | ch -> ch) s

let render (e : entry) =
  String.concat "\n"
    [ "// glitchctl fuzz counterexample";
      "// property: " ^ e.property;
      "// seed: " ^ string_of_int e.seed;
      "// defenses: " ^ config_to_string e.config;
      "// sensitive: " ^ String.concat "," e.config.sensitive;
      "// message: " ^ one_line e.message;
      "";
      e.source ]

let filename (e : entry) =
  Printf.sprintf "fuzz-%s-%08x.c" e.property
    (Hashtbl.hash (e.source, e.property, e.seed) land 0xFFFFFFFF)

let save ~dir (e : entry) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename e) in
  let oc = open_out path in
  output_string oc (render e);
  close_out oc;
  path

let field lines key =
  let prefix = "// " ^ key ^ ": " in
  List.find_map
    (fun l ->
      if String.length l >= String.length prefix
         && String.sub l 0 (String.length prefix) = prefix
      then
        Some (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
      else None)
    lines

let load path : (entry, string) result =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error m -> Error m
  | text ->
    let lines = String.split_on_char '\n' text in
    let get key ~default = Option.value (field lines key) ~default in
    let sensitive =
      match field lines "sensitive" with
      | Some "" | None -> []
      | Some s -> String.split_on_char ',' s
    in
    let seed = get "seed" ~default:"0" in
    let defect =
      match (field lines "sabotage", get "mutant" ~default:"none") with
      | Some _, _ ->
        Error
          "obsolete \"sabotage:\" header; seeded defects are the source \
           patches in test/mutants/"
      | None, "none" -> Ok ()
      | None, name ->
        Error
          (Printf.sprintf
             "found under mutant %S, which a replay cannot arm: apply \
              test/mutants/%s.mutant and drop the \"mutant:\" header"
             name name)
    in
    let config = config_of_string ~sensitive (get "defenses" ~default:"") in
    match (int_of_string_opt seed, defect, config) with
    | None, _, _ -> Error (Printf.sprintf "malformed seed: %S" seed)
    | _, Error m, _ | _, _, Error m -> Error m
    | Some seed, Ok (), Ok config ->
      Ok
        { property = get "property" ~default:"roundtrip";
          seed;
          config;
          message = get "message" ~default:"";
          source = text }
