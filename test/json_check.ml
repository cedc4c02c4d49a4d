(* Shared assertion for the machine-readable reports: an emitter's
   output must parse with the codec and re-print byte-identically. *)

let roundtrip name j =
  let s = Json.to_string j in
  match Json.of_string s with
  | Ok j' -> Alcotest.(check string) (name ^ " re-prints identically") s (Json.to_string j')
  | Error e -> Alcotest.failf "%s does not re-parse: %s\n%s" name e s
