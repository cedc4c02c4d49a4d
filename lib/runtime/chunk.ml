(* Several slices per worker so a domain that drew cheap work steals the
   remainder of a slow one's share; large enough that the atomic claim
   is noise against the per-element cost. *)
let slices_per_job = 8

let default_size ~lo ~hi ~jobs =
  let total = max 0 (hi - lo) in
  let pieces = if jobs <= 1 then 1 else jobs * slices_per_job in
  max 1 ((total + pieces - 1) / pieces)

type queue = { lo : int; hi : int; size : int; next : int Atomic.t }

let queue ?size ~lo ~hi ~jobs () =
  let size =
    match size with
    | Some s when s > 0 -> s
    | Some _ -> invalid_arg "Chunk.queue: non-positive slice size"
    | None -> default_size ~lo ~hi ~jobs
  in
  { lo; hi; size; next = Atomic.make lo }

let take q =
  let start = Atomic.fetch_and_add q.next q.size in
  if start >= q.hi then None else Some (start, min q.hi (start + q.size))
