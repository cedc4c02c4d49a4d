(* SplitMix64 finaliser over Int64, folded over the coordinates. *)

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] start seed = mix64 (Int64.add (Int64.of_int seed) gamma)
let[@inline] fold state c =
  mix64 (Int64.add (Int64.mul state gamma) (Int64.of_int c))
let[@inline] finish state = Int64.to_int (Int64.shift_right_logical state 2)

let hash ~seed coords = finish (List.fold_left fold (start seed) coords)

(* The fixed-arity draws unroll the fold: straight-line Int64 code that
   ocamlopt keeps unboxed, so a draw allocates nothing. *)
let hash2 ~seed a b = finish (fold (fold (start seed) a) b)

let hash4 ~seed a b c d =
  finish (fold (fold (fold (fold (start seed) a) b) c) d)

let hash5 ~seed a b c d e =
  finish (fold (fold (fold (fold (fold (start seed) a) b) c) d) e)

let to_u01 h =
  float_of_int (h land 0x3FFFFFFFFFFF) /. float_of_int 0x400000000000

let u01 ~seed coords = to_u01 (hash ~seed coords)

let to_bits h ~width =
  if width < 1 || width > 32 then invalid_arg "Hashrand.bits: width";
  h land ((1 lsl width) - 1)

let bits ~seed coords ~width = to_bits (hash ~seed coords) ~width
