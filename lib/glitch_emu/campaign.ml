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
   image: resetting between words is two [Bytes.blit]s (flash including
   the target halfword, plus zeroed SRAM) via [Memory.restore], instead
   of [Memory.clear] + a per-byte [load_bytes]. The blit also undoes
   any stray flash writes a glitched run may have performed, so the
   fast reset is exactly as thorough as the old one. *)
type rig = {
  mem : Memory.t;
  cpu : Cpu.t;
  image : bytes;
  target_addr : int;  (* flash address of the target halfword *)
  pristine : Memory.snapshot;
  zero_rule : bool option;  (* Exec.run's options, boxed once *)
  budget : int option;
}

let make_rig config (case : Testcase.t) =
  let { Loader.mem; cpu; _ } = Loader.load_instrs ~layout case.Testcase.instrs in
  { mem;
    cpu;
    image = Thumb.Encode.to_bytes case.instrs;
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
   instruction table, so a run allocates only its stop: nothing for an
   exhausted budget, 4 words for a breakpoint, trap or invalid word, 7
   for a bad fetch and 10 for a bad data access (the memory fault plus
   the stop it becomes). The XOR sweep of BEQ averages 6.4 words a run. *)
let run_rig rig =
  Cpu.reset ~sp:layout.stack_top ~pc:flash_base rig.cpu;
  classify rig.cpu
    (Exec.run ?zero_is_invalid:rig.zero_rule ?max_steps:rig.budget rig.mem rig.cpu)

(* The fast kernel: one perturbed word against a reused rig. The
   outcome is a pure function of (config, case, word) — the rig is
   restored to the same pristine state every time — which is what lets
   a sweep run each distinct word once. *)
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

(* One count per category for each bit count 0..width. *)
let zero_counts () = Array.init (width + 1) (fun _ -> Array.make ncat 0)

(* A worker's share of a sweep: [by_changed.(d).(c)] counts the image
   words of category [c] that differ from the target in [d] bits. *)
type tally = { by_changed : counts array; mutable executed : int }

let make_tally () = { by_changed = zero_counts (); executed = 0 }

(* Category totals over the modified masks: every weight but 0. *)
let totals_of by_weight =
  Array.init ncat (fun c ->
      Array.fold_left (fun n row -> n + row.(c)) 0 by_weight - by_weight.(0).(c))

let make_store () = Runtime.Store.create ~slots:(1 lsl width)

(* A word already in [store] is not run again; a word run is published
   there. Every word is visited by exactly one worker, so no two
   workers ever fill the same slot. *)
let word_outcome store rig t ~word =
  let known = match store with Some s -> Runtime.Store.get s word | None -> -1 in
  if known >= 0 then known
  else begin
    let c = category_index (run_word rig ~word) in
    (match store with Some s -> Runtime.Store.set s word c | None -> ());
    t.executed <- t.executed + 1;
    c
  end

(* Each distinct perturbed word is run once: the drain ranges over the
   indices of the subsets of the target's changeable bits, not over
   masks. Only afterwards are the words spread over the masks that
   produce them, by [Fault_model.preimages], with integer arithmetic
   that does not depend on which worker took which slice. *)
let run_case ?pool ?store config (case : Testcase.t) =
  let target = Testcase.target_word case in
  let changeable = Fault_model.changeable config.flip ~width target in
  let parts =
    Runtime.Pool.drain ?pool ~lo:0 ~hi:(1 lsl Bitmask.popcount changeable)
      ~init:(fun () -> (make_rig config case, make_tally ()))
      (fun (rig, t) lo hi ->
        let s = ref (Bitmask.deposit lo ~into:changeable) in
        for _ = lo to hi - 1 do
          let c = word_outcome store rig t ~word:(target lxor !s) in
          let row = t.by_changed.(Bitmask.popcount !s) in
          row.(c) <- row.(c) + 1;
          s := Bitmask.next_subset !s ~within:changeable
        done)
  in
  let by_weight = zero_counts () in
  let executed = ref 0 in
  List.iter
    (fun (_, t) ->
      executed := !executed + t.executed;
      Array.iteri
        (fun changed words ->
          for weight = changed to width do
            let n =
              Fault_model.preimages config.flip ~width ~target ~changed ~weight
            in
            for c = 0 to ncat - 1 do
              by_weight.(weight).(c) <- by_weight.(weight).(c) + (n * words.(c))
            done
          done)
        t.by_changed)
    parts;
  { case; config; by_weight; totals = totals_of by_weight;
    stats = { executed = !executed; memoized = (1 lsl width) - !executed } }

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
    let totals = totals_of by_weight in
    let r =
      { case; config; by_weight; totals; stats = { executed = 0; memoized = 1 lsl width } }
    in
    let sum = Array.fold_left ( + ) 0 in
    if sum totals + sum by_weight.(0) = 1 lsl width && to_json r = j
    then Some r
    else None
