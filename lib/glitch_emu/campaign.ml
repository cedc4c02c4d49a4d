open Machine

type category =
  | Success
  | Bad_read
  | Bad_fetch
  | Invalid_instruction
  | Failed
  | No_effect

let categories =
  [ Success; Bad_read; Bad_fetch; Invalid_instruction; Failed; No_effect ]

let category_name = function
  | Success -> "Success"
  | Bad_read -> "Bad Read"
  | Bad_fetch -> "Bad Fetch"
  | Invalid_instruction -> "Invalid Instruction"
  | Failed -> "Failed"
  | No_effect -> "No Effect"

let category_index = function
  | Success -> 0
  | Bad_read -> 1
  | Bad_fetch -> 2
  | Invalid_instruction -> 3
  | Failed -> 4
  | No_effect -> 5

let category_of_index = function
  | 0 -> Success
  | 1 -> Bad_read
  | 2 -> Bad_fetch
  | 3 -> Invalid_instruction
  | 4 -> Failed
  | 5 -> No_effect
  | _ -> invalid_arg "Campaign.category_of_index"

type config = {
  flip : Fault_model.flip;
  zero_is_invalid : bool;
  max_steps : int;
}

let default_config flip = { flip; zero_is_invalid = false; max_steps = 200 }

type counts = int array

type sweep_stats = { executed : int; memoized : int }

type result = {
  case : Testcase.t;
  config : config;
  by_weight : counts array;
  totals : counts;
  stats : sweep_stats;
}

let layout = Loader.snippet_layout
let flash_base = layout.flash_base

(* [pristine] is the address space right after loading the unperturbed
   image: resetting between masks is two [Bytes.blit]s (flash including
   the target halfword, plus zeroed SRAM) via [Memory.restore], instead
   of [Memory.clear] + a per-byte [load_bytes]. The blit also undoes
   any stray flash writes a glitched run may have performed, so the
   fast reset is exactly as thorough as the old one. *)
type rig = {
  mem : Memory.t;
  cpu : Cpu.t;
  image : bytes;
  target : int;  (* unperturbed target halfword *)
  target_addr : int;  (* its flash address *)
  pristine : Memory.snapshot;
  zero_rule : bool option;  (* Exec.run's options, boxed once *)
  budget : int option;
}

let make_rig config (case : Testcase.t) =
  let { Loader.mem; cpu; _ } = Loader.load_instrs ~layout case.Testcase.instrs in
  { mem;
    cpu;
    image = Thumb.Encode.to_bytes case.instrs;
    target = Testcase.target_word case;
    target_addr = flash_base + (2 * case.target_index);
    pristine = Memory.snapshot mem;
    zero_rule = Some config.zero_is_invalid;
    budget = Some config.max_steps }

let category_of_stop : Exec.stop -> category = function
  | Exec.Breakpoint _ -> No_effect
  | Exec.Bad_read _ | Exec.Bad_write _ -> Bad_read
  | Exec.Bad_fetch _ -> Bad_fetch
  | Exec.Invalid_instruction _ -> Invalid_instruction
  | Exec.Swi_trap _ | Exec.Step_limit -> Failed

let classify cpu (stop : Exec.stop) =
  match stop with
  | Exec.Breakpoint _ when Exec.get cpu Testcase.skip_reg = Testcase.skip_marker ->
    Success
  | _ -> category_of_stop stop

(* Reset the CPU and run the perturbed snippet to its stop. Fetches go
   through the unboxed memory path and the shared pre-decoded
   instruction table, so a well-behaved run allocates nothing. *)
let run_rig rig =
  Cpu.reset ~sp:layout.stack_top ~pc:flash_base rig.cpu;
  classify rig.cpu
    (Exec.run ?zero_is_invalid:rig.zero_rule ?max_steps:rig.budget rig.mem rig.cpu)

(* The fast kernel: one perturbed word against a reused rig. The
   outcome is a pure function of (config, case, word) — the rig is
   restored to the same pristine state every time — which is what makes
   the per-word memo below sound. *)
let run_word rig ~word =
  Memory.restore rig.mem rig.pristine;
  Memory.write_u16_exn rig.mem rig.target_addr word;
  run_rig rig

(* The reference kernel: the original reset protocol (clear everything,
   reload the image, perturb), no memo, a fresh machine per call. Kept
   deliberately independent of the sweep fast path so differential
   tests can pin one against the other. *)
let run_mask config rig (case : Testcase.t) ~mask =
  Memory.clear rig.mem;
  Memory.load_bytes rig.mem ~addr:flash_base rig.image;
  Memory.write_u16_exn rig.mem rig.target_addr
    (Fault_model.apply config.flip ~mask (Testcase.target_word case));
  run_rig rig

let run_one config case ~mask = run_mask config (make_rig config case) case ~mask

let width = 16
let ncat = List.length categories

type tally = { by_weight : counts array; totals : counts }

let make_tally () =
  { by_weight = Array.init (width + 1) (fun _ -> Array.make ncat 0);
    totals = Array.make ncat 0 }

(* The word-outcome memo. [store] slot [word] is the category index
   already established for a perturbed word, or empty. The And/Or
   fault models are many-to-one (e.g. AND can only produce subsets of
   the target's set bits), so a 65,536-mask sweep visits only a few
   hundred to a few thousand distinct words — every revisit is a table
   lookup instead of an emulation.

   The store is SHARED between worker domains (it used to be
   worker-private, which made N workers re-execute every word up to N
   times and inverted the parallel speedup). Sharing is sound because
   the outcome is a pure function of (config, case, word): racing
   workers can only publish identical values, and a stale read of
   "empty" merely re-executes — see [Runtime.Store]. The counters stay
   per-worker (merged after the region), so hit rates remain
   observable without contended atomics on the hot path.

   A store is only valid for the (config, case) pair it was filled
   under — the outcome depends on the whole snippet, not just the
   perturbed word — so callers passing [?store] must key it by both. *)
type memo = {
  store : Runtime.Store.t;
  mutable executed : int;
  mutable memoized : int;
}

let make_store () = Runtime.Store.create ~slots:0x10000

let make_memo store = { store; executed = 0; memoized = 0 }

let classify_word rig memo ~word =
  let c = Runtime.Store.get memo.store word in
  if c >= 0 then begin
    memo.memoized <- memo.memoized + 1;
    c
  end
  else begin
    let c = category_index (run_word rig ~word) in
    Runtime.Store.set memo.store word c;
    memo.executed <- memo.executed + 1;
    c
  end

let record config rig memo t ~mask =
  let flipped = Fault_model.flipped_bits config.flip ~width ~mask in
  let word = Fault_model.apply config.flip ~mask rig.target in
  let idx = classify_word rig memo ~word in
  t.by_weight.(flipped).(idx) <- t.by_weight.(flipped).(idx) + 1;
  if flipped > 0 then t.totals.(idx) <- t.totals.(idx) + 1

(* Counts are merged with integer addition — commutative and
   associative — so the merged result is bit-identical whatever the
   domain count or chunk schedule. *)
let merge_into dst (src : tally) =
  Array.iteri
    (fun w row -> Array.iteri (fun i n -> row.(i) <- row.(i) + n) src.by_weight.(w))
    dst.by_weight;
  Array.iteri (fun i n -> dst.totals.(i) <- dst.totals.(i) + n) src.totals

(* The 2^16 mask space is cut into contiguous slices; each worker
   drains slices into a private rig and tally but a SHARED word-outcome
   store, and per-worker tallies are summed. Classification depends
   only on (config, case, mask), so the merged counts are the same
   whatever the races on the store resolve to; the executed/memoized
   split, by contrast, is schedule-dependent with several workers (a
   word raced by two workers on a cold slot counts as two executions),
   so only executed + memoized and the tables themselves are
   deterministic. A lone worker sweeps all masks with one rig, and
   executes each distinct word exactly once. *)
(* One store per domain, emptied at the start of every [run_case] that
   is given none. A fresh 64 KB table per case would be garbage the
   moment the case returns, and the major heap would keep dozens of
   them alive until the collector caught up. *)
let scratch_store = Domain.DLS.new_key make_store

let run_case ?pool ?store config (case : Testcase.t) =
  let store =
    match store with
    | Some s -> s
    | None ->
      let s = Domain.DLS.get scratch_store in
      Runtime.Store.clear s;
      s
  in
  let parts =
    Runtime.Pool.drain ?pool ~lo:0 ~hi:(1 lsl width)
      ~init:(fun () -> (make_rig config case, make_memo store, make_tally ()))
      (fun (rig, memo, t) lo hi ->
        for mask = lo to hi - 1 do
          record config rig memo t ~mask
        done)
  in
  let t = make_tally () in
  let executed = ref 0 and memoized = ref 0 in
  List.iter
    (fun (_, memo, part) ->
      merge_into t part;
      executed := !executed + memo.executed;
      memoized := !memoized + memo.memoized)
    parts;
  { case; config; by_weight = t.by_weight; totals = t.totals;
    stats = { executed = !executed; memoized = !memoized } }

let perf ~label ?pool results elapsed_s =
  let executed, memoized =
    List.fold_left
      (fun (e, m) r -> (e + r.stats.executed, m + r.stats.memoized))
      (0, 0) results
  in
  Stats.Perf.make ~label ?pool
    ~items:(List.length results lsl width)
    (Stats.Perf.split ~rate:"hit_rate" ("executed", executed)
       ("memoized", memoized))
    elapsed_s

type sweep = {
  categories : category array;
  by_word : category option array;
  sweep_stats : sweep_stats;
}

let sweep config (case : Testcase.t) =
  let store = make_store () in
  let r = run_case ~store config case in
  let by_word =
    Array.init (1 lsl width) (fun word ->
        match Runtime.Store.get store word with
        | -1 -> None
        | c -> Some (category_of_index c))
  in
  let target = Testcase.target_word case in
  { categories =
      Array.init (1 lsl width) (fun mask ->
          Option.get by_word.(Fault_model.apply config.flip ~mask target));
    by_word;
    sweep_stats = r.stats }

let categories_by_mask config case = (sweep config case).categories

let success_rate_by_weight (result : result) =
  List.init (width + 1) (fun flipped ->
      let row = result.by_weight.(flipped) in
      let den = Array.fold_left ( + ) 0 row in
      let num = row.(category_index Success) in
      (flipped, Stats.Rate.pct ~num ~den))
  |> List.filter (fun (flipped, _) ->
         Array.fold_left ( + ) 0 result.by_weight.(flipped) > 0)

let category_percent (result : result) cat =
  let num = result.totals.(category_index cat) in
  let den = Array.fold_left ( + ) 0 result.totals in
  Stats.Rate.pct ~num ~den

let to_json (r : result) =
  let ints a = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)) in
  Json.Obj
    [ ( "totals",
        Json.Obj
          (List.map
             (fun cat -> (category_name cat, Json.Int r.totals.(category_index cat)))
             categories) );
      ("by_weight", Json.List (Array.to_list (Array.map ints r.by_weight))) ]

(* The inverse of [to_json], re-validating the sweep invariants: the
   by-weight rows hold non-negative counts that sum to 2^16, and
   re-encoding with the totals re-derived from the rows of weight 1..16
   reproduces the payload exactly (so wrong totals, or a missing, extra
   or reordered field, are rejected). *)
let of_json config case j =
  (* -1 marks anything that is not a count *)
  let count = function Json.Int n when n >= 0 -> n | _ -> -1 in
  let by_weight =
    match Json.member "by_weight" j with
    | Some (Json.List rows) ->
      Array.of_list
        (List.map
           (function Json.List l -> Array.of_list (List.map count l) | _ -> [||])
           rows)
    | _ -> [||]
  in
  if
    Array.length by_weight <> width + 1
    || Array.exists (fun row -> Array.length row <> ncat || Array.mem (-1) row) by_weight
  then None
  else
    let column i = Array.fold_left (fun n row -> n + row.(i)) 0 by_weight in
    let r =
      { case; config; by_weight;
        totals = Array.init ncat (fun i -> column i - by_weight.(0).(i));
        stats = { executed = 0; memoized = 1 lsl width } }
    in
    if Array.fold_left ( + ) 0 (Array.init ncat column) = 1 lsl width && to_json r = j
    then Some r
    else None
