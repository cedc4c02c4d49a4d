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

(* A small dedicated address space: snippets are a handful of
   instructions and a few words of stack. Small regions keep the
   65,536-run sweep cheap to reset. *)
let flash_base = 0x08000000
let flash_size = 0x400
let sram_base = 0x20000000
let sram_size = 0x400
let stack_top = sram_base + sram_size - 16

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
}

let make_rig (case : Testcase.t) =
  let mem = Memory.create () in
  Memory.map mem ~addr:flash_base ~size:flash_size;
  Memory.map mem ~addr:sram_base ~size:sram_size;
  let image = Thumb.Encode.to_bytes case.Testcase.instrs in
  Memory.load_bytes mem ~addr:flash_base image;
  { mem;
    cpu = Cpu.create ~sp:stack_top ~pc:flash_base ();
    image;
    target = Testcase.target_word case;
    target_addr = flash_base + (2 * case.target_index);
    pristine = Memory.snapshot mem }

(* Execute until stop, optionally treating a fetched 0x0000 as an
   invalid instruction (Figure 2(c)'s modified ISA). Fetches go through
   the unboxed memory path and the shared pre-decoded instruction
   table, so a well-behaved run allocates nothing. *)
let run_to_stop ~zero_is_invalid ~max_steps mem cpu =
  let rec go remaining =
    if remaining = 0 then Exec.Step_limit
    else
      match Memory.read_u16_exn mem (Cpu.pc cpu) with
      | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
        Exec.Bad_fetch a
      | 0 when zero_is_invalid -> Exec.Invalid_instruction 0
      | w -> (
        match Exec.execute mem cpu Thumb.Decode.table.(w) with
        | Exec.Running -> go (remaining - 1)
        | Exec.Stopped s -> s)
  in
  go max_steps

let classify cpu (stop : Exec.stop) : category =
  match stop with
  | Exec.Breakpoint _ ->
    if Cpu.get cpu Testcase.skip_reg = Testcase.skip_marker then Success
    else No_effect
  | Exec.Bad_read _ | Exec.Bad_write _ -> Bad_read
  | Exec.Bad_fetch _ -> Bad_fetch
  | Exec.Invalid_instruction _ -> Invalid_instruction
  | Exec.Swi_trap _ | Exec.Step_limit -> Failed

(* The fast kernel: one perturbed word against a reused rig. The
   outcome is a pure function of (config, case, word) — the rig is
   restored to the same pristine state every time — which is what makes
   the per-word memo below sound. *)
let run_word config rig ~word =
  Memory.restore rig.mem rig.pristine;
  (match Memory.write_u16 rig.mem rig.target_addr word with
  | Ok () -> ()
  | Error _ -> assert false);
  Cpu.reset ~sp:stack_top ~pc:flash_base rig.cpu;
  let stop =
    run_to_stop ~zero_is_invalid:config.zero_is_invalid
      ~max_steps:config.max_steps rig.mem rig.cpu
  in
  classify rig.cpu stop

(* The reference kernel: the original reset protocol (clear everything,
   reload the image, perturb), no memo, a fresh machine per call. Kept
   deliberately independent of the sweep fast path so differential
   tests can pin one against the other. *)
let run_mask config rig (case : Testcase.t) ~mask =
  Memory.clear rig.mem;
  Memory.load_bytes rig.mem ~addr:flash_base rig.image;
  let word = Fault_model.apply config.flip ~mask (Testcase.target_word case) in
  (match Memory.write_u16 rig.mem rig.target_addr word with
  | Ok () -> ()
  | Error _ -> assert false);
  Cpu.reset ~sp:stack_top ~pc:flash_base rig.cpu;
  let stop =
    run_to_stop ~zero_is_invalid:config.zero_is_invalid
      ~max_steps:config.max_steps rig.mem rig.cpu
  in
  classify rig.cpu stop

let run_one config case ~mask = run_mask config (make_rig case) case ~mask

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

let make_memo ?store () =
  let store = match store with Some s -> s | None -> make_store () in
  { store; executed = 0; memoized = 0 }

let classify_word config rig memo ~word =
  let c = Runtime.Store.get memo.store word in
  if c >= 0 then begin
    memo.memoized <- memo.memoized + 1;
    c
  end
  else begin
    let c = category_index (run_word config rig ~word) in
    Runtime.Store.set memo.store word c;
    memo.executed <- memo.executed + 1;
    c
  end

let record config rig memo t ~mask =
  let flipped = Fault_model.flipped_bits config.flip ~width ~mask in
  let word = Fault_model.apply config.flip ~mask rig.target in
  let idx = classify_word config rig memo ~word in
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

(* The single-domain path: one rig, one memo, masks in weight order. *)
let run_case_seq ?store config (case : Testcase.t) =
  let rig = make_rig case in
  let memo = make_memo ?store () in
  let t = make_tally () in
  Bitmask.iter_all ~width (fun ~weight:_ ~mask -> record config rig memo t ~mask);
  { case; config; by_weight = t.by_weight; totals = t.totals;
    stats = { executed = memo.executed; memoized = memo.memoized } }

(* The parallel path: the 2^16 mask space is cut into contiguous
   slices; each worker domain drains slices into a private rig and
   tally but a SHARED word-outcome store, and per-worker tallies are
   summed. Classification depends only on (config, case, mask), so the
   merged counts equal the sequential ones exactly whatever the races
   on the store resolve to; the executed/memoized split, by contrast,
   is schedule-dependent (a word raced by two workers on a cold slot
   counts as two executions), so only executed + memoized and the
   tables themselves are deterministic. *)
let run_case_in ?store pool config (case : Testcase.t) =
  let q =
    Runtime.Chunk.queue ~lo:0 ~hi:(1 lsl width) ~jobs:(Runtime.Pool.jobs pool) ()
  in
  let store = match store with Some s -> s | None -> make_store () in
  let parts =
    Runtime.Pool.map_workers pool (fun _wid ->
        let rig = make_rig case in
        let memo = make_memo ~store () in
        let t = make_tally () in
        let rec drain () =
          match Runtime.Chunk.take q with
          | None -> ()
          | Some (lo, hi) ->
            for mask = lo to hi - 1 do
              record config rig memo t ~mask
            done;
            drain ()
        in
        drain ();
        (t, memo.executed, memo.memoized))
  in
  let t = make_tally () in
  let executed = ref 0 and memoized = ref 0 in
  List.iter
    (fun (part, e, m) ->
      merge_into t part;
      executed := !executed + e;
      memoized := !memoized + m)
    parts;
  { case; config; by_weight = t.by_weight; totals = t.totals;
    stats = { executed = !executed; memoized = !memoized } }

let run_case ?pool ?store config case =
  match pool with
  | Some pool when Runtime.Pool.jobs pool > 1 -> run_case_in ?store pool config case
  | Some _ | None -> run_case_seq ?store config case

let run_all ?pool config cases = List.map (run_case ?pool config) cases

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
  let rig = make_rig case in
  let memo = make_memo () in
  let categories =
    Array.init (1 lsl width) (fun mask ->
        let word = Fault_model.apply config.flip ~mask rig.target in
        category_of_index (classify_word config rig memo ~word))
  in
  { categories;
    by_word =
      Array.init (1 lsl width) (fun word ->
          match Runtime.Store.get memo.store word with
          | -1 -> None
          | c -> Some (category_of_index c));
    sweep_stats = { executed = memo.executed; memoized = memo.memoized } }

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
