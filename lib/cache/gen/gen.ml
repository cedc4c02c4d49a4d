(* Print the cache library's [Code_version] module: one digest over the
   source files named on the command line. It is taken over the sorted
   per-file digests, so it depends on the files' contents only, not on
   their paths or the order they are listed in. *)
let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let digests =
    List.sort compare (List.map (fun f -> Digest.to_hex (Digest.file f)) files)
  in
  Printf.printf "let v = %S\n"
    (Digest.to_hex (Digest.string (String.concat "" digests)))
