type flip = And | Or | Xor

let all = [ And; Or; Xor ]
let name = function And -> "AND" | Or -> "OR" | Xor -> "XOR"

let apply flip ~mask word =
  match flip with
  | And -> word land mask
  | Or -> word lor mask
  | Xor -> word lxor mask

let identity_mask flip ~width =
  match flip with And -> (1 lsl width) - 1 | Or | Xor -> 0

let mask_of_bits flip ~width bits = identity_mask flip ~width lxor bits

let flipped_bits flip ~width ~mask =
  match flip with
  | And -> width - Bitmask.popcount mask
  | Or | Xor -> Bitmask.popcount mask

let changeable flip ~width target =
  let all = (1 lsl width) - 1 in
  match flip with
  | And -> target land all
  | Or -> lnot target land all
  | Xor -> all

(* A mask reaches [target lxor s] by selecting exactly the bits [s] among
   the changeable ones, and may select any of the inert rest on top:
   C(inert, j) masks, each of flipped-bit weight [|s| + j]. *)
let preimages flip ~width ~target ~changed ~weight =
  let inert = width - Bitmask.popcount (changeable flip ~width target) in
  Bitmask.choose inert (weight - changed)
