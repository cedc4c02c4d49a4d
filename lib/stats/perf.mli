(** Wall-clock timing plus named counters for one measured run.

    A record is a label, the worker count, the item count, the elapsed
    seconds and an ordered list of named counters. It prints
    human-readably ({!pp}), as one machine-readable [PERF] line
    ({!machine_line}) and as one JSON object ({!to_json}, the shape of
    a [BENCH.json] record), each in counter-list order, e.g.:

    {v PERF experiment=fig2 jobs=4 items=4063232 seconds=3.271 rate=1242198.4 executed=51240 memoized=4011992 hit_rate=0.9874 v}

    Engines build their own counter lists (memo, pruning, replay
    splits, usually with {!split}); {!make} appends the pool's. *)

type value =
  | Count of int  (** printed as [%d] *)
  | Ratio of float  (** in [0, 1]; printed as [%.4f] ({!pp}: a percentage) *)
  | Seconds of float  (** printed as [%.3f] *)

type t = {
  label : string;  (** experiment name; keep it shell-token safe *)
  jobs : int;  (** worker domains used *)
  items : int;  (** work units processed (masks, attempts, points, ...) *)
  elapsed_s : float;  (** wall-clock seconds *)
  counters : (string * value) list;  (** printed in list order *)
}

val time : (unit -> 'a) -> 'a * float
(** Run the thunk and return its value with the seconds it took on the
    monotonic clock (wall time across domains, unlike [Sys.time] which
    sums CPU time). *)

val split : rate:string -> string * int -> string * int -> (string * value) list
(** [split ~rate (a, x) (b, y)] is the three counters [a = x], [b = y]
    and [rate = y / (x + y)] (0 when [x + y = 0]) — e.g. executed vs
    memoized with [hit_rate]. *)

val make :
  label:string -> ?pool:Runtime.Pool.t -> items:int ->
  (string * value) list -> float -> t
(** [make ~label ?pool ~items counters elapsed_s] is the record of a run
    on [pool] (1 job without one). With a pool, [counters] are followed
    by [wait_s] (worker-seconds of pool capacity spent outside job
    functions) and [utilization] (busy fraction of [jobs * wall]) from
    the pool's region accounting, which is then reset so the next
    record starts from zero. *)

val machine_line : t -> string
(** One [PERF key=value ...] line, no trailing newline. *)

val to_json : t -> Json.t
(** One JSON object: [label], [jobs], [items], [seconds], [rate]
    (items per second; 0 for a zero-length interval), then the
    counters. *)

val pp : t Fmt.t
(** Human-readable summary, e.g.
    ["fig2: 4063232 items in 3.27s (1242198 items/s, 4 jobs, executed 51240, ...)"]. *)
