(* A persistent content-addressed result cache.

   A key is the hex digest of one JSON value: the code version and a
   description of every input that determines the result. Entries are
   files named by their key under a two-character fan-out directory
   (aa/aabbcc...), in the format

     glitch-cache 1
     <payload bytes, verbatim>
     DIGEST <md5 hex of the payload>

   The trailing digest makes corruption detectable: a truncated file
   loses the DIGEST line, a bit-flipped payload no longer matches it.
   Every load failure — missing file, bad header, bad or absent
   digest, unreadable entry — is reported as a miss, never an
   exception: a cache must not be able to take the tool down.

   Writes go through a temp file in the same directory followed by
   [Sys.rename], so readers (including concurrent processes) only ever
   see complete entries. *)

type t = { dir : string }

let mkdir_p dir =
  let rec make d =
    if not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let open_dir dir =
  mkdir_p dir;
  { dir }

let dir t = t.dir

let code_version = Code_version.v

(* Json.to_string is injective but for non-finite floats (printed as
   null), which no key carries: distinct inputs never share a key. *)
let key inputs =
  Digest.to_hex
    (Digest.string
       (Json.to_string (Json.List [ Json.String code_version; inputs ])))

let is_hex_key k =
  String.length k = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) k

let path t ~key =
  if not (is_hex_key key) then invalid_arg "Cache.path: not a cache key";
  Filename.concat (Filename.concat t.dir (String.sub key 0 2)) key

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let header = "glitch-cache 1\n"
let trailer payload = "\nDIGEST " ^ Digest.to_hex (Digest.string payload) ^ "\n"
let entry payload = header ^ payload ^ trailer payload

(* The trailer has a fixed length, so the payload is whatever lies
   between the header and the last [trailer_len] bytes; the entry is
   intact iff re-encoding that payload reproduces it byte for byte. *)
let trailer_len = String.length (trailer "")

let parse_entry raw =
  let len = String.length raw - String.length header - trailer_len in
  if len < 0 then None
  else
    let payload = String.sub raw (String.length header) len in
    if String.equal raw (entry payload) then Some payload else None

let load t ~key =
  (* validate the key outside the catch-all: a malformed key is caller
     error, not cache corruption *)
  let p = path t ~key in
  match read_file p with
  | raw -> parse_entry raw
  | exception _ -> None

let store t ~key payload =
  let final = path t ~key in
  mkdir_p (Filename.dirname final);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ()) (Hashtbl.hash key)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc (entry payload);
     close_out oc;
     Sys.rename tmp final
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with _ -> ());
     raise e)

let memo t ~key ~of_json ~to_json run =
  let decoded c =
    Option.bind (load c ~key) (fun payload ->
        Option.bind (Result.to_option (Json.of_string payload)) of_json)
  in
  match Option.bind t decoded with
  | Some r -> (r, true)
  | None ->
    let r = run () in
    Option.iter (fun c -> store c ~key (Json.to_string (to_json r))) t;
    (r, false)
