type job = { f : int -> unit; generation : int }

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable running : int;  (* spawned workers still inside the current job *)
  mutable in_region : bool;
  mutable stopping : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable domains : unit Domain.t list;
  mutable stat_regions : int;
  mutable stat_wall : float;  (* caller-side wall time inside regions *)
  mutable stat_busy : float;  (* summed per-worker time inside job fns *)
}

type stats = { regions : int; wall_s : float; busy_s : float }

(* Seconds on the monotonic clock: region timings must not jump with
   wall-clock adjustments. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* cgroup v2 cpu.max: "QUOTA PERIOD" in microseconds, or "max PERIOD"
   for unlimited. The effective core count is ceil(quota / period). *)
let parse_cpu_max line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "max"; _ ] -> None
  | [ quota; period ] -> (
    match (int_of_string_opt quota, int_of_string_opt period) with
    | Some q, Some p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
    | _ -> None)
  | _ -> None

(* cgroup v1 split the same quota over two files; a quota of -1 means
   unlimited. *)
let parse_cpu_cfs ~quota ~period =
  match (int_of_string_opt (String.trim quota), int_of_string_opt (String.trim period)) with
  | Some q, _ when q < 0 -> None
  | Some q, Some p when q > 0 && p > 0 -> Some ((q + p - 1) / p)
  | _ -> None

let read_first_line path =
  match open_in path with
  | exception _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> match input_line ic with l -> Some l | exception _ -> None)

let cgroup_cpu_limit () =
  match read_first_line "/sys/fs/cgroup/cpu.max" with
  | Some line -> parse_cpu_max line
  | None -> (
    match
      ( read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
        read_first_line "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
    with
    | Some quota, Some period -> parse_cpu_cfs ~quota ~period
    | _ -> None)

(* [recommended_domain_count] reports the host's cores, which points
   the wrong way on both ends: CI containers often cap the process at
   one or two cores via a cgroup CPU quota while the host reports many
   more, and a sweep with fewer work chunks than cores leaves the
   surplus domains spinning on an empty queue. Clamping to the cgroup
   quota fixes the first (over-subscribed workers time-slice against
   each other inside the quota); clamping to the chunk count fixes the
   second. *)
let default_jobs ?chunks () =
  let n = Domain.recommended_domain_count () in
  let n = match cgroup_cpu_limit () with Some c -> max 1 (min n c) | None -> n in
  match chunks with None -> n | Some c -> max 1 (min n c)

let record_failure t e bt =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some (e, bt);
  Mutex.unlock t.mutex

(* Each spawned worker sleeps until a fresh generation is published,
   runs its share, then reports in. Exceptions are captured so a
   crashing worker can never leave the region's barrier hanging. *)
let worker_loop t wid =
  let last_generation = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    let rec await () =
      if t.stopping then None
      else
        match t.job with
        | Some j when j.generation > !last_generation -> Some j
        | Some _ | None ->
          Condition.wait t.work_ready t.mutex;
          await ()
    in
    match await () with
    | None -> Mutex.unlock t.mutex
    | Some j ->
      Mutex.unlock t.mutex;
      last_generation := j.generation;
      let t0 = now () in
      (try j.f wid
       with e -> record_failure t e (Printexc.get_raw_backtrace ()));
      let dt = now () -. t0 in
      Mutex.lock t.mutex;
      t.stat_busy <- t.stat_busy +. dt;
      t.running <- t.running - 1;
      if t.running = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    { jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      running = 0;
      in_region = false;
      stopping = false;
      failure = None;
      domains = [];
      stat_regions = 0;
      stat_wall = 0.;
      stat_busy = 0. }
  in
  t.domains <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let jobs t = t.jobs

(* One path for every job count: with [jobs = 1] no worker is woken and
   the caller runs the whole region. *)
let run t f =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  if t.in_region then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: nested parallel region"
  end;
  t.in_region <- true;
  t.failure <- None;
  t.generation <- t.generation + 1;
  t.job <- Some { f; generation = t.generation };
  t.running <- t.jobs - 1;
  let t0 = now () in
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  (try f 0 with e -> record_failure t e (Printexc.get_raw_backtrace ()));
  let caller_busy = now () -. t0 in
  Mutex.lock t.mutex;
  while t.running > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.stat_regions <- t.stat_regions + 1;
  t.stat_wall <- t.stat_wall +. (now () -. t0);
  t.stat_busy <- t.stat_busy +. caller_busy;
  t.job <- None;
  t.in_region <- false;
  let failure = t.failure in
  t.failure <- None;
  Mutex.unlock t.mutex;
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_workers t f =
  let results = Array.make t.jobs None in
  run t (fun wid -> results.(wid) <- Some (f wid));
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* every worker id runs exactly once *))

let drain ?pool ?size ~lo ~hi ~init f =
  let jobs = match pool with Some t -> t.jobs | None -> 1 in
  let q = Chunk.queue ?size ~lo ~hi ~jobs () in
  let worker _wid =
    let acc = init () in
    let rec loop () =
      match Chunk.take q with
      | None -> acc
      | Some (a, b) ->
        f acc a b;
        loop ()
    in
    loop ()
  in
  match pool with Some t -> map_workers t worker | None -> [ worker 0 ]

let stats t =
  Mutex.lock t.mutex;
  let s = { regions = t.stat_regions; wall_s = t.stat_wall; busy_s = t.stat_busy } in
  Mutex.unlock t.mutex;
  s

let reset_stats t =
  Mutex.lock t.mutex;
  t.stat_regions <- 0;
  t.stat_wall <- 0.;
  t.stat_busy <- 0.;
  Mutex.unlock t.mutex

(* With [jobs] workers available for [wall_s] seconds, anything not
   spent inside job functions is queue wait + scheduling overhead. *)
let stats_wait ~jobs s =
  Float.max 0. ((float_of_int jobs *. s.wall_s) -. s.busy_s)

let stats_utilization ~jobs s =
  let capacity = float_of_int jobs *. s.wall_s in
  if capacity <= 0. then 1. else Float.min 1. (s.busy_s /. capacity)

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  let domains = t.domains in
  t.domains <- [];
  List.iter Domain.join domains

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
