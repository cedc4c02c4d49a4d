let popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0 v

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
