(* Tests for the work-distribution runtime: contiguous chunk queues and
   the persistent domain pool that every campaign drains its index
   space through. *)

(* --- chunk sizing ---------------------------------------------------------- *)

(* Every slice of a queue, claimed by one caller, in claim order. *)
let slices_of q =
  let rec go acc =
    match Runtime.Chunk.take q with None -> List.rev acc | Some s -> go (s :: acc)
  in
  go []

(* Slices are non-empty, in order, and tile [lo, hi) exactly. *)
let tiles ~lo ~hi slices =
  List.fold_left
    (fun expect (a, b) ->
      match expect with Some e when a = e && b > a -> Some b | _ -> None)
    (Some lo) slices
  = Some hi

let default_size_tiles_ranges () =
  List.iter
    (fun (lo, hi, jobs) ->
      let name = Printf.sprintf "[%d,%d)/%d" lo hi jobs in
      let slices = slices_of (Runtime.Chunk.queue ~lo ~hi ~jobs ()) in
      Alcotest.(check bool) (name ^ " tiles") true (tiles ~lo ~hi slices);
      (* a lone worker gets the whole range; a pool several slices each *)
      let expect_max = if jobs = 1 then 1 else 8 * jobs in
      Alcotest.(check bool)
        (name ^ " slice count")
        true
        (List.length slices <= expect_max))
    [ (0, 65536, 1); (0, 65536, 4); (0, 10, 3); (5, 6, 4); (7, 100, 1);
      (3, 20, 17); (0, 5, 8) ];
  Alcotest.(check int) "jobs 1 is one slice" 65536
    (Runtime.Chunk.default_size ~lo:0 ~hi:65536 ~jobs:1)

let queue_of_empty_range () =
  Alcotest.(check (list (pair int int)))
    "empty range" []
    (slices_of (Runtime.Chunk.queue ~lo:5 ~hi:5 ~jobs:4 ()));
  Alcotest.(check (list (pair int int)))
    "reversed range" []
    (slices_of (Runtime.Chunk.queue ~lo:9 ~hi:5 ~jobs:1 ()))

let prop_queue_tiles_range =
  QCheck.Test.make ~name:"queue tiles the range exactly" ~count:200
    QCheck.(triple (int_range 0 100) (int_range 0 1000) (int_range 1 64))
    (fun (lo, len, jobs) ->
      let hi = lo + len in
      tiles ~lo ~hi (slices_of (Runtime.Chunk.queue ~lo ~hi ~jobs ())))

(* --- chunk queue ---------------------------------------------------------- *)

let queue_drains_exactly_once () =
  let lo = 3 and hi = 100 in
  let q = Runtime.Chunk.queue ~size:7 ~lo ~hi ~jobs:4 () in
  let seen = Array.make hi 0 in
  let rec drain () =
    match Runtime.Chunk.take q with
    | None -> ()
    | Some (a, b) ->
      Alcotest.(check bool) "slice within range" true (lo <= a && a < b && b <= hi);
      for i = a to b - 1 do
        seen.(i) <- seen.(i) + 1
      done;
      drain ()
  in
  drain ();
  for i = lo to hi - 1 do
    Alcotest.(check int) (Printf.sprintf "index %d once" i) 1 seen.(i)
  done;
  Alcotest.(check (option (pair int int)))
    "stays exhausted" None (Runtime.Chunk.take q)

let queue_rejects_bad_size () =
  Alcotest.check_raises "size 0"
    (Invalid_argument "Chunk.queue: non-positive slice size")
    (fun () -> ignore (Runtime.Chunk.queue ~size:0 ~lo:0 ~hi:10 ~jobs:2 ()))

let concurrent_drain_partitions_range () =
  (* Four domains race on one queue; together they must claim every
     index exactly once. *)
  let lo = 0 and hi = 10_000 in
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      let q = Runtime.Chunk.queue ~size:13 ~lo ~hi ~jobs:4 () in
      let parts =
        Runtime.Pool.map_workers pool (fun _wid ->
            let mine = ref [] in
            let rec drain () =
              match Runtime.Chunk.take q with
              | None -> ()
              | Some (a, b) ->
                for i = a to b - 1 do
                  mine := i :: !mine
                done;
                drain ()
            in
            drain ();
            !mine)
      in
      let all = List.concat parts |> List.sort compare in
      Alcotest.(check (list int)) "every index exactly once"
        (List.init (hi - lo) (fun i -> lo + i))
        all)

(* --- pool ----------------------------------------------------------------- *)

let jobs_are_clamped () =
  Runtime.Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "clamped to 1" 1 (Runtime.Pool.jobs pool));
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check int) "kept at 3" 3 (Runtime.Pool.jobs pool))

let run_reaches_every_worker () =
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      let hit = Array.make 4 (Atomic.make 0) in
      Array.iteri (fun i _ -> hit.(i) <- Atomic.make 0) hit;
      Runtime.Pool.run pool (fun wid -> Atomic.incr hit.(wid));
      Array.iteri
        (fun wid a ->
          Alcotest.(check int) (Printf.sprintf "worker %d ran once" wid) 1
            (Atomic.get a))
        hit)

let map_workers_ordered () =
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "ids in order" [ 0; 1; 2; 3 ]
        (Runtime.Pool.map_workers pool (fun wid -> wid)))

(* Each worker's accumulator records the slices it claimed; together
   they must cover the range once, with one accumulator per worker. *)
let drain_folds_every_index_once () =
  let lo = 3 and hi = 1000 in
  let drained name ?pool ?size ~workers () =
    let parts =
      Runtime.Pool.drain ?pool ?size ~lo ~hi ~init:(fun () -> ref [])
        (fun acc a b -> acc := (a, b) :: !acc)
    in
    Alcotest.(check int) (name ^ " one accumulator per worker") workers
      (List.length parts);
    let slices = List.concat_map (fun acc -> !acc) parts |> List.sort compare in
    Alcotest.(check bool) (name ^ " tiles the range") true (tiles ~lo ~hi slices);
    slices
  in
  Alcotest.(check (list (pair int int))) "no pool: one slice" [ (lo, hi) ]
    (drained "no pool" ~workers:1 ());
  Runtime.Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check (list (pair int int))) "jobs=1: one slice" [ (lo, hi) ]
        (drained "jobs=1" ~pool ~workers:1 ()));
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      ignore (drained "jobs=3" ~pool ~workers:3 ());
      Alcotest.(check int) "size 1: one slice per index" (hi - lo)
        (List.length (drained "jobs=3 size 1" ~pool ~size:1 ~workers:3 ())))

let pool_survives_reuse () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      for round = 1 to 5 do
        let total = Atomic.make 0 in
        Runtime.Pool.run pool (fun wid -> ignore (Atomic.fetch_and_add total (wid + 1)));
        Alcotest.(check int) (Printf.sprintf "round %d" round) 3 (Atomic.get total)
      done)

let worker_exception_propagates () =
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "re-raised in caller" (Failure "boom") (fun () ->
          Runtime.Pool.run pool (fun wid ->
              if wid = 2 then failwith "boom"));
      (* the pool is still usable after a failed region *)
      let n = Atomic.make 0 in
      Runtime.Pool.run pool (fun _ -> Atomic.incr n);
      Alcotest.(check int) "pool survives the failure" 4 (Atomic.get n))

let nested_run_rejected () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      let nested = ref None in
      Runtime.Pool.run pool (fun wid ->
          if wid = 0 then
            match Runtime.Pool.run pool (fun _ -> ()) with
            | () -> nested := Some false
            | exception Invalid_argument _ -> nested := Some true);
      Alcotest.(check (option bool)) "nested run raises" (Some true) !nested)

(* --- shared store --------------------------------------------------------- *)

let store_starts_empty () =
  let s = Runtime.Store.create ~slots:64 in
  Alcotest.(check int) "length" 64 (Runtime.Store.length s);
  for i = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "slot %d empty" i) (-1)
      (Runtime.Store.get s i)
  done;
  Alcotest.(check int) "occupancy" 0 (Runtime.Store.occupancy s)

let store_set_get_roundtrip () =
  let s = Runtime.Store.create ~slots:300 in
  (* the full representable value range, including the extremes *)
  for i = 0 to 254 do
    Runtime.Store.set s i i
  done;
  for i = 0 to 254 do
    Alcotest.(check int) (Printf.sprintf "slot %d" i) i (Runtime.Store.get s i)
  done;
  Alcotest.(check int) "untouched slot still empty" (-1)
    (Runtime.Store.get s 255);
  Alcotest.(check int) "occupancy counts filled slots" 255
    (Runtime.Store.occupancy s)

let store_rejects_bad_values () =
  let s = Runtime.Store.create ~slots:4 in
  Alcotest.check_raises "value 255 reserved"
    (Invalid_argument "Store.set: value out of range") (fun () ->
      Runtime.Store.set s 0 255);
  Alcotest.check_raises "negative value"
    (Invalid_argument "Store.set: value out of range") (fun () ->
      Runtime.Store.set s 0 (-1));
  Alcotest.check_raises "no slots"
    (Invalid_argument "Store.create: non-positive slot count") (fun () ->
      ignore (Runtime.Store.create ~slots:0))

let store_concurrent_publication () =
  (* Racing writers all publish the same (deterministic) value per
     slot — the campaign-sweep contract — so after the region every
     slot must hold exactly that value. *)
  let slots = 10_000 in
  let s = Runtime.Store.create ~slots in
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      Runtime.Pool.run pool (fun _wid ->
          for i = 0 to slots - 1 do
            match Runtime.Store.get s i with
            | -1 -> Runtime.Store.set s i (i land 0x7F)
            | v -> if v <> i land 0x7F then failwith "torn read"
          done));
  for i = 0 to slots - 1 do
    if Runtime.Store.get s i <> i land 0x7F then
      Alcotest.failf "slot %d holds %d" i (Runtime.Store.get s i)
  done;
  Alcotest.(check int) "all slots published" slots (Runtime.Store.occupancy s)

(* --- pool stats ----------------------------------------------------------- *)

let default_jobs_clamped_to_chunks () =
  Alcotest.(check int) "one chunk, one job" 1
    (Runtime.Pool.default_jobs ~chunks:1 ());
  Alcotest.(check int) "zero chunks still one job" 1
    (Runtime.Pool.default_jobs ~chunks:0 ());
  Alcotest.(check bool) "never above the chunk count" true
    (Runtime.Pool.default_jobs ~chunks:2 () <= 2);
  Alcotest.(check bool) "always at least one" true
    (Runtime.Pool.default_jobs () >= 1)

let cgroup_quota_parsers () =
  let check_max name expect line =
    Alcotest.(check (option int)) name expect (Runtime.Pool.parse_cpu_max line)
  in
  check_max "whole quota" (Some 2) "200000 100000";
  check_max "fractional quota rounds up" (Some 2) "150000 100000";
  check_max "sub-core quota keeps one" (Some 1) "50000 100000";
  check_max "unlimited" None "max 100000";
  check_max "trailing newline tolerated" (Some 4) "400000 100000\n";
  check_max "malformed" None "banana";
  check_max "missing period" None "200000";
  check_max "zero period" None "200000 0";
  check_max "negative quota" None "-1 100000";
  let check_cfs name expect quota period =
    Alcotest.(check (option int)) name expect
      (Runtime.Pool.parse_cpu_cfs ~quota ~period)
  in
  check_cfs "v1 whole quota" (Some 3) "300000" "100000";
  check_cfs "v1 ceil" (Some 2) "110000" "100000";
  check_cfs "v1 unlimited" None "-1" "100000";
  check_cfs "v1 malformed" None "lots" "100000";
  (* default_jobs must respect whatever the live cgroup says *)
  (match Runtime.Pool.cgroup_cpu_limit () with
  | Some limit ->
    Alcotest.(check bool) "default_jobs within cgroup quota" true
      (Runtime.Pool.default_jobs () <= max 1 limit)
  | None -> ());
  Alcotest.(check bool) "always at least one" true
    (Runtime.Pool.default_jobs () >= 1)

let pool_stats_account_regions () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      let s0 = Runtime.Pool.stats pool in
      Alcotest.(check int) "starts at zero regions" 0 s0.Runtime.Pool.regions;
      for _ = 1 to 3 do
        Runtime.Pool.run pool (fun _ -> ignore (Sys.opaque_identity 0))
      done;
      let s = Runtime.Pool.stats pool in
      Alcotest.(check int) "three regions" 3 s.Runtime.Pool.regions;
      Alcotest.(check bool) "wall is non-negative" true (s.Runtime.Pool.wall_s >= 0.);
      Alcotest.(check bool) "busy is non-negative" true (s.Runtime.Pool.busy_s >= 0.);
      Runtime.Pool.reset_stats pool;
      let s = Runtime.Pool.stats pool in
      Alcotest.(check int) "reset clears regions" 0 s.Runtime.Pool.regions;
      Alcotest.(check (float 0.)) "reset clears wall" 0. s.Runtime.Pool.wall_s)

let pool_stats_derived_measures () =
  (* wait = jobs*wall - busy (clamped at 0); utilization = busy/(jobs*wall),
     and 1.0 on a pool that has run nothing. *)
  let s = { Runtime.Pool.regions = 1; wall_s = 2.0; busy_s = 3.0 } in
  Alcotest.(check (float 1e-9)) "wait" 1.0 (Runtime.Pool.stats_wait ~jobs:2 s);
  Alcotest.(check (float 1e-9)) "utilization" 0.75
    (Runtime.Pool.stats_utilization ~jobs:2 s);
  let over = { Runtime.Pool.regions = 1; wall_s = 1.0; busy_s = 3.0 } in
  Alcotest.(check (float 1e-9)) "wait clamped at zero" 0.
    (Runtime.Pool.stats_wait ~jobs:2 over);
  Alcotest.(check (float 1e-9)) "utilization clamped at one" 1.0
    (Runtime.Pool.stats_utilization ~jobs:2 over);
  let idle = { Runtime.Pool.regions = 0; wall_s = 0.; busy_s = 0. } in
  Alcotest.(check (float 1e-9)) "idle pool reads fully utilized" 1.0
    (Runtime.Pool.stats_utilization ~jobs:4 idle)

let pool_stats_busy_tracks_work () =
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      Runtime.Pool.run pool (fun _ ->
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 0.01 do
            ignore (Sys.opaque_identity 0)
          done);
      let s = Runtime.Pool.stats pool in
      (* two workers each spun ~10ms *)
      Alcotest.(check bool) "busy covers both workers" true
        (s.Runtime.Pool.busy_s >= 0.015);
      Alcotest.(check bool) "busy bounded by jobs*wall" true
        (s.Runtime.Pool.busy_s <= (2. *. s.Runtime.Pool.wall_s) +. 1e-6))

(* Two 8-byte keys that differ only in bit 63 of their one word must
   not share a bucket hash. *)
let keymap_hash_keeps_bit_63 () =
  let hash s = Runtime.Keymap.hash (Bytes.of_string s) (String.length s) in
  Alcotest.(check bool) "top bit of a word changes the hash" true
    (hash (String.make 8 '\000') <> hash (String.make 7 '\000' ^ "\128"))

let () =
  let props = List.map Qseed.to_alcotest [ prop_queue_tiles_range ] in
  Alcotest.run "runtime"
    [ ("chunk",
       [ Alcotest.test_case "default size tiles ranges" `Quick
           default_size_tiles_ranges;
         Alcotest.test_case "queue of empty range" `Quick queue_of_empty_range;
         Alcotest.test_case "queue drains exactly once" `Quick
           queue_drains_exactly_once;
         Alcotest.test_case "queue rejects bad size" `Quick
           queue_rejects_bad_size ]);
      ("chunk-properties", props);
      ("pool",
       [ Alcotest.test_case "jobs clamped" `Quick jobs_are_clamped;
         Alcotest.test_case "run reaches every worker" `Quick
           run_reaches_every_worker;
         Alcotest.test_case "map_workers ordered" `Quick map_workers_ordered;
         Alcotest.test_case "drain folds every index once" `Quick
           drain_folds_every_index_once;
         Alcotest.test_case "pool reusable across regions" `Quick
           pool_survives_reuse;
         Alcotest.test_case "worker exception propagates" `Quick
           worker_exception_propagates;
         Alcotest.test_case "nested regions rejected" `Quick nested_run_rejected;
         Alcotest.test_case "concurrent drain partitions range" `Quick
           concurrent_drain_partitions_range ]);
      ("store",
       [ Alcotest.test_case "starts empty" `Quick store_starts_empty;
         Alcotest.test_case "set/get roundtrip" `Quick store_set_get_roundtrip;
         Alcotest.test_case "rejects bad values" `Quick store_rejects_bad_values;
         Alcotest.test_case "concurrent publication" `Quick
           store_concurrent_publication ]);
      ("keymap",
       [ Alcotest.test_case "hash keeps bit 63" `Quick keymap_hash_keeps_bit_63 ]);
      ("stats",
       [ Alcotest.test_case "default_jobs clamped to chunks" `Quick
           default_jobs_clamped_to_chunks;
         Alcotest.test_case "cgroup quota parsers" `Quick cgroup_quota_parsers;
         Alcotest.test_case "regions accounted and reset" `Quick
           pool_stats_account_regions;
         Alcotest.test_case "wait and utilization math" `Quick
           pool_stats_derived_measures;
         Alcotest.test_case "busy tracks work" `Quick
           pool_stats_busy_tracks_work ]) ]
