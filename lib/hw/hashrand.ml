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

(* A prefix is the fold state after the seed and three coordinates, kept
   as raw 64 bits in a [Bytes]: an OCaml [int] would drop bit 63, and a
   boxed [Int64] would allocate. Reading it back inside the draw keeps
   the state unboxed. *)
let set_prefix b slot ~seed a c d =
  Bytes.set_int64_ne b (8 * slot) (fold (fold (fold (start seed) a) c) d)

let prefixed4 b slot d = finish (fold (Bytes.get_int64_ne b (8 * slot)) d)

let prefixed5 b slot d e =
  finish (fold (fold (Bytes.get_int64_ne b (8 * slot)) d) e)

(* A uniform draw is the low 46 bits of the hash over 2^46. *)
let u01_mask = 0x3FFFFFFFFFFF
let one = u01_mask + 1

let to_u01 h = float_of_int (h land u01_mask) /. float_of_int one

(* [m / 2^46 < p] for an integer [m < 2^46] is [m < ceil (p * 2^46)]:
   scaling by a power of two is exact, so the comparison moves to the
   integers without rounding. The ceiling is taken inline: [int_of_float]
   rounds the positive [x] down, so add one unless [x] was whole. *)
let[@inline] threshold p =
  if not (p > 0.) then 0
  else if p >= 1. then one
  else
    let x = p *. 0x1p46 in
    let t = int_of_float x in
    if float_of_int t < x then t + 1 else t

let thresholds ~scale ps ts =
  for k = 0 to Array.length ps - 1 do
    ts.(k) <- threshold (scale *. ps.(k))
  done

let u01 ~seed coords = to_u01 (hash ~seed coords)

let to_bits h ~width =
  if width < 1 || width > 32 then invalid_arg "Hashrand.bits: width";
  h land ((1 lsl width) - 1)

let bits ~seed coords ~width = to_bits (hash ~seed coords) ~width
