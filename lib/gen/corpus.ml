(* Replayable counterexamples.

   A corpus entry is a plain Mini-C file whose leading comment lines
   carry the metadata needed to re-run the exact failing check:
   property family, generator seed, pass configuration and the seeded
   mutant (if any) the failure was found under. Because the metadata
   lives in [//] comments, the whole file still parses as Mini-C — the
   stored source IS the replay input. *)

type entry = {
  property : string;
  seed : int;
  config : Resistor.Config.t;
  mutant : Mutant.t option;
  message : string;
  source : string;
}

let config_to_string (c : Resistor.Config.t) =
  let flags =
    List.filter_map
      (fun (on, name) -> if on then Some name else None)
      [ (c.enums, "enums"); (c.returns, "returns"); (c.integrity, "integrity");
        (c.branches, "branches"); (c.loops, "loops"); (c.delay, "delay");
        (c.sigcfi, "sigcfi"); (c.domains, "domains") ]
  in
  String.concat "," flags

let config_of_string ~sensitive s =
  let has f =
    s <> "" && List.mem f (String.split_on_char ',' s)
  in
  Resistor.Config.only ~enums:(has "enums") ~returns:(has "returns")
    ~integrity:(has "integrity") ~branches:(has "branches")
    ~loops:(has "loops") ~delay:(has "delay") ~sigcfi:(has "sigcfi")
    ~domains:(has "domains") ~sensitive ()

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | ch -> ch) s

let render (e : entry) =
  String.concat "\n"
    [ "// glitchctl fuzz counterexample";
      "// property: " ^ e.property;
      "// seed: " ^ string_of_int e.seed;
      "// defenses: " ^ config_to_string e.config;
      "// sensitive: " ^ String.concat "," e.config.sensitive;
      "// mutant: " ^ Option.fold ~none:"none" ~some:Mutant.name e.mutant;
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
    let mutant =
      match (field lines "sabotage", get "mutant" ~default:"none") with
      | Some _, _ ->
        Error "obsolete \"sabotage:\" header; name the mutant with \"mutant:\""
      | None, "none" -> Ok None
      | None, name -> (
        match List.find_opt (fun m -> Mutant.name m = name) Mutant.all with
        | Some m -> Ok (Some m)
        | None -> Error (Printf.sprintf "unknown mutant: %S" name))
    in
    match (int_of_string_opt seed, mutant) with
    | None, _ -> Error (Printf.sprintf "malformed seed: %S" seed)
    | _, Error m -> Error m
    | Some seed, Ok mutant ->
      Ok
        { property = get "property" ~default:"roundtrip";
          seed;
          config = config_of_string ~sensitive (get "defenses" ~default:"");
          mutant;
          message = get "message" ~default:"";
          source = text }
