(* Tests for the persistent content-addressed result cache: round-trips,
   atomic overwrite, and — the load-bearing property — that every kind
   of on-disk corruption reads back as a miss, never as an exception or
   a wrong payload. *)

let counter = ref 0

let fresh_dir () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "glitch-cache-test.%d.%d" (Unix.getpid ()) !counter)

(* The on-disk layout is part of the format contract (two-character
   fan-out, file named by the key), so the corruption tests may address
   entries directly. *)
let entry_path cache key =
  Filename.concat
    (Filename.concat (Cache.dir cache) (String.sub key 0 2))
    key

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file p s =
  let oc = open_out_bin p in
  output_string oc s;
  close_out oc

(* --- keys ----------------------------------------------------------------- *)

(* A key over a list of strings, the shape most inputs reduce to. *)
let key parts = Cache.key (Json.List (List.map (fun s -> Json.String s) parts))

let key_shape_and_boundaries () =
  let k = key [ "a"; "b" ] in
  Alcotest.(check int) "32 hex chars" 32 (String.length k);
  Alcotest.(check bool) "hex alphabet" true
    (String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k);
  Alcotest.(check string) "deterministic" k (key [ "a"; "b" ]);
  Alcotest.(check bool) "part boundaries matter" true
    (key [ "ab"; "c" ] <> key [ "a"; "bc" ]);
  (* raw code bytes contain NULs, so no separator byte can delimit parts *)
  Alcotest.(check bool) "NUL inside parts" true
    (key [ "a\x00b"; "c" ] <> key [ "a"; "b\x00c" ]);
  Alcotest.(check bool) "content matters" true
    (key [ "a" ] <> key [ "b" ])

(* The code version is a build-time digest of these libraries' sources
   (lib/cache/dune); recompute it from the same files, which the tests
   depend on. Pinning it to the sources means any edit to them — a
   changed classifier constant, say — changes every key. *)
let code_version_pins_sources () =
  let build_root = Filename.dirname (Filename.dirname Sys.executable_name) in
  let dir d = Filename.concat (Filename.concat build_root "lib") d in
  let sources d =
    Sys.readdir (dir d) |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
    |> List.map (Filename.concat (dir d))
  in
  let files =
    List.concat_map sources
      [ "thumb"; "machine"; "glitch_emu"; "runtime"; "absint"; "exhaust"; "json" ]
    @ List.map (Filename.concat (dir "cache")) [ "cache.ml"; "cache.mli" ]
  in
  Alcotest.(check bool) "every library contributes" true
    (List.length files > 40);
  let digests =
    List.sort compare (List.map (fun f -> Digest.to_hex (Digest.file f)) files)
  in
  Alcotest.(check string) "digest of the sources"
    (Digest.to_hex (Digest.string (String.concat "" digests)))
    Cache.code_version

let bad_keys_rejected () =
  let c = Cache.open_dir (fresh_dir ()) in
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "key %S" k)
        (Invalid_argument "Cache.path: not a cache key")
        (fun () -> ignore (Cache.load c ~key:k)))
    [ ""; "abc"; "../../../../etc/passwd";
      String.make 32 'G'; String.make 31 'a'; String.make 33 'a' ]

(* --- round trips ---------------------------------------------------------- *)

let roundtrip_payloads () =
  let c = Cache.open_dir (fresh_dir ()) in
  List.iteri
    (fun i payload ->
      let key = key [ "roundtrip"; string_of_int i ] in
      Alcotest.(check (option string))
        "miss before store" None (Cache.load c ~key);
      Cache.store c ~key payload;
      Alcotest.(check (option string))
        "hit after store" (Some payload) (Cache.load c ~key))
    [ "";
      "hello";
      "1 2 3 4 5 ";
      "line one\nline two\n";
      "\x00\x01\xff binary \x0a\x0d bytes";
      (* adversarial: a payload that ends in something shaped like the
         trailer must still round-trip verbatim *)
      "counts\nDIGEST deadbeefdeadbeefdeadbeefdeadbeef";
      String.make 100_000 'x' ]

let overwrite_replaces_payload () =
  let c = Cache.open_dir (fresh_dir ()) in
  let key = key [ "overwrite" ] in
  Cache.store c ~key "first";
  Cache.store c ~key "second";
  Alcotest.(check (option string)) "last store wins" (Some "second")
    (Cache.load c ~key)

let cache_survives_reopen () =
  let dir = fresh_dir () in
  let key = key [ "persist" ] in
  Cache.store (Cache.open_dir dir) ~key "persisted payload";
  Alcotest.(check (option string))
    "visible from a fresh handle" (Some "persisted payload")
    (Cache.load (Cache.open_dir dir) ~key)

(* --- corruption tolerance ------------------------------------------------- *)

let truncation_is_a_miss () =
  let c = Cache.open_dir (fresh_dir ()) in
  let key = key [ "truncate" ] in
  Cache.store c ~key "0 1 2 3 4 5 6 7 8 9";
  let p = entry_path c key in
  let intact = read_file p in
  for len = 0 to String.length intact - 1 do
    write_file p (String.sub intact 0 len);
    Alcotest.(check (option string))
      (Printf.sprintf "truncated to %d bytes" len)
      None (Cache.load c ~key)
  done;
  write_file p intact;
  Alcotest.(check bool) "intact file still hits" true (Cache.load c ~key <> None)

let bit_flips_are_misses () =
  let c = Cache.open_dir (fresh_dir ()) in
  let key = key [ "bitflip" ] in
  Cache.store c ~key "42 17 65536 totals";
  let p = entry_path c key in
  let intact = read_file p in
  (* Flip one bit at every byte position — header, payload, separator
     and digest line alike — and demand a miss each time. *)
  String.iteri
    (fun i _ ->
      let corrupt = Bytes.of_string intact in
      Bytes.set corrupt i (Char.chr (Char.code intact.[i] lxor 0x04));
      write_file p (Bytes.to_string corrupt);
      Alcotest.(check (option string))
        (Printf.sprintf "bit flipped at byte %d" i)
        None (Cache.load c ~key))
    intact;
  write_file p intact;
  Alcotest.(check bool) "intact file still hits" true (Cache.load c ~key <> None)

let garbage_files_are_misses () =
  let c = Cache.open_dir (fresh_dir ()) in
  let key = key [ "garbage" ] in
  Cache.store c ~key "payload";
  let p = entry_path c key in
  List.iter
    (fun junk ->
      write_file p junk;
      Alcotest.(check (option string))
        (Printf.sprintf "junk %S" (String.sub junk 0 (min 20 (String.length junk))))
        None (Cache.load c ~key))
    [ ""; "\n"; "not a cache entry at all";
      "glitch-cache 999\npayload\nDIGEST 0123456789abcdef0123456789abcdef\n";
      "glitch-cache 1\n"; "glitch-cache 1\npayload with no digest line\n";
      "glitch-cache 1\npayload\nDIGEST not-a-digest\n" ]

let entry_is_a_directory () =
  (* Even a directory squatting on the entry path must read as a miss. *)
  let c = Cache.open_dir (fresh_dir ()) in
  let key = key [ "dir-squat" ] in
  let p = entry_path c key in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p p;
  Alcotest.(check (option string)) "directory entry" None (Cache.load c ~key)

let () =
  Alcotest.run "cache"
    [ ("keys",
       [ Alcotest.test_case "shape and boundaries" `Quick
           key_shape_and_boundaries;
         Alcotest.test_case "bad keys rejected" `Quick bad_keys_rejected;
         Alcotest.test_case "code version pins the sources" `Quick
           code_version_pins_sources ]);
      ("roundtrip",
       [ Alcotest.test_case "payload round trips" `Quick roundtrip_payloads;
         Alcotest.test_case "overwrite replaces" `Quick
           overwrite_replaces_payload;
         Alcotest.test_case "survives reopen" `Quick cache_survives_reopen ]);
      ("corruption",
       [ Alcotest.test_case "every truncation misses" `Quick
           truncation_is_a_miss;
         Alcotest.test_case "every bit flip misses" `Quick bit_flips_are_misses;
         Alcotest.test_case "garbage files miss" `Quick
           garbage_files_are_misses;
         Alcotest.test_case "directory squatting misses" `Quick
           entry_is_a_directory ]) ]
