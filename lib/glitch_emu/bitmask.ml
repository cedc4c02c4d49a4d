(* SWAR: sum adjacent bit pairs, then nibbles, then bytes, and gather
   the four byte sums in the top byte with one multiply. Correct for
   every value below 2^32; anything wider takes the bit-serial loop. *)
let popcount v =
  if v land 0xFFFFFFFF = v then begin
    let v = v - ((v lsr 1) land 0x55555555) in
    let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
    let v = (v + (v lsr 4)) land 0x0F0F0F0F in
    ((v * 0x01010101) lsr 24) land 0xFF
  end
  else begin
    let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
    go 0 v
  end

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1
  end

(* Gosper's hack: next integer with the same popcount. *)
let next_same_weight v =
  let c = v land -v in
  let r = v + c in
  r lor (((v lxor r) / c) lsr 2)

let iter_of_weight ~width ~weight f =
  if weight < 0 || weight > width then ()
  else if weight = 0 then f 0
  else begin
    let limit = 1 lsl width in
    let v = ref ((1 lsl weight) - 1) in
    while !v < limit do
      f !v;
      v := next_same_weight !v
    done
  end

let of_weight ~width ~weight =
  let acc = ref [] in
  iter_of_weight ~width ~weight (fun m -> acc := m :: !acc);
  List.rev !acc

let deposit i ~into =
  let rec go acc i bits =
    if i = 0 || bits = 0 then acc
    else
      let low = bits land -bits in
      go (if i land 1 = 1 then acc lor low else acc) (i lsr 1) (bits lxor low)
  in
  go 0 i into

(* Setting every bit outside [bits] makes the carry of [+ 1] skip them. *)
let next_subset s ~within:bits = ((s lor lnot bits) + 1) land bits
