(* The seeded-defect catalog: every entry of test/mutants/ is a source
   patch that test/mutants/run.py applies to a copy of the tree, and
   the tests it names must then fail. Tier-1 only checks that the
   catalog has not rotted: each patch still applies, and each killing
   test still exists under the name the entry gives it. *)

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

(* --- the source-patch catalog ------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* How many times [needle] occurs in [hay]. *)
let occurrences hay needle =
  let n = String.length needle and count = ref 0 in
  let rec at i k = k = n || (hay.[i + k] = needle.[k] && at i (k + 1)) in
  for i = 0 to String.length hay - n do
    if at i 0 then incr count
  done;
  !count

(* One entry in run.py's format: [key: value] header lines ('#' lines
   are comments), then the old text after "@@ old" and the new text
   after "@@ new", each its lines joined by newlines. *)
type entry = { fields : (string * string) list; old : string; new_ : string }

let parse_entry path =
  let lines = String.split_on_char '\n' (read_file path) in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let rec cut marker acc = function
    | [] -> Alcotest.failf "%s: no %S line" path marker
    | l :: rest when l = marker -> (List.rev acc, rest)
    | l :: rest -> cut marker (l :: acc) rest
  in
  let header, body = cut "@@ old" [] lines in
  let old, new_ = cut "@@ new" [] body in
  let field line =
    match String.index_opt line ':' with
    | _ when line = "" || line.[0] = '#' -> None
    | Some i ->
      Some
        ( String.sub line 0 i,
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> Alcotest.failf "%s: unexpected header line %S" path line
  in
  { fields = List.filter_map field header;
    old = String.concat "\n" old;
    new_ = String.concat "\n" new_ }

(* The suites test/dune declares: the words of its [(names ...)] field. *)
let suites () =
  read_file (Filename.concat build_root "test/dune")
  |> String.split_on_char '('
  |> List.find (String.starts_with ~prefix:"names")
  |> String.map (function '\n' | ')' -> ' ' | c -> c)
  |> String.split_on_char ' '
  |> List.filter (fun w -> w <> "" && w <> "names")

let test_catalog_applies () =
  let dir = Filename.concat (Filename.concat build_root "test") "mutants" in
  let suites = suites () in
  let names =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".mutant")
         (Array.to_list (Sys.readdir dir)))
  in
  Alcotest.(check bool) "catalog has entries" true (names <> []);
  List.iter
    (fun name ->
      let e = parse_entry (Filename.concat dir name) in
      let one key =
        match List.filter (fun (k, _) -> k = key) e.fields with
        | [ (_, v) ] -> v
        | _ -> Alcotest.failf "%s: needs one %s: line" name key
      in
      let file = Filename.concat build_root (one "file") in
      if one "suite" = "" || not (List.mem_assoc "kills" e.fields) then
        Alcotest.failf "%s: names no suite or no killing test" name;
      if e.old = "" || e.old = e.new_ then
        Alcotest.failf "%s: the patch changes nothing" name;
      if not (Sys.file_exists file) then
        Alcotest.failf "%s: %s is not a dependency of the test" name
          (one "file");
      Alcotest.(check int)
        (Printf.sprintf "%s: old text occurs once in %s" name (one "file"))
        1
        (occurrences (read_file file) e.old);
      let suite = one "suite" in
      if not (List.mem suite suites) then
        Alcotest.failf "%s: %s is not a suite in test/dune" name suite;
      (* a kill names "group test" as Alcotest prints them; both halves
         must still be string literals of the suite *)
      let source =
        read_file (Filename.concat build_root ("test/" ^ suite ^ ".ml"))
      in
      List.iter
        (fun (k, kill) ->
          if k = "kills" then
            match String.index_opt kill ' ' with
            | None -> Alcotest.failf "%s: kill %S names no group" name kill
            | Some i ->
              List.iter
                (fun part ->
                  if occurrences source ("\"" ^ part ^ "\"") = 0 then
                    Alcotest.failf "%s: %S is not a string literal of %s.ml"
                      name part suite)
                [ String.sub kill 0 i;
                  String.sub kill (i + 1) (String.length kill - i - 1) ])
        e.fields)
    names

let () =
  Alcotest.run "mutant"
    [ ( "catalog",
        [ Alcotest.test_case "source patches still apply" `Quick
            test_catalog_applies ] ) ]
