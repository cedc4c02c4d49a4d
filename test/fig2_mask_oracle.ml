(* The reference Figure 2 sweep: [Glitch_emu.Campaign.run_case] as it
   stood while it walked all 2^16 masks, classifying each through a
   per-word memo, kept as the oracle of the kernel that runs each
   distinct perturbed word once and counts its masks by weight. The rig,
   the memo and the per-mask loop below are copied verbatim, minus the
   pool, the per-domain scratch store and the caller's warm store: one
   worker, one fresh store per call. [test_glitch_emu]'s "sweep kernel
   = per-mask oracle" compares the two on every sweep of Figure 2. *)

open Machine
open Glitch_emu

let layout = Loader.snippet_layout
let flash_base = layout.flash_base

type rig = {
  mem : Memory.t;
  cpu : Cpu.t;
  target : int;  (* unperturbed target halfword *)
  target_addr : int;  (* its flash address *)
  pristine : Memory.snapshot;
  zero_rule : bool option;  (* Exec.run's options, boxed once *)
  budget : int option;
}

let make_rig (config : Campaign.config) (case : Testcase.t) =
  let { Loader.mem; cpu; _ } = Loader.load_instrs ~layout case.Testcase.instrs in
  { mem;
    cpu;
    target = Testcase.target_word case;
    target_addr = flash_base + (2 * case.target_index);
    pristine = Memory.snapshot mem;
    zero_rule = Some config.zero_is_invalid;
    budget = Some config.max_steps }

let run_rig rig =
  Cpu.reset ~sp:layout.stack_top ~pc:flash_base rig.cpu;
  Campaign.classify rig.cpu
    (Exec.run ?zero_is_invalid:rig.zero_rule ?max_steps:rig.budget rig.mem rig.cpu)

let run_word rig ~word =
  Memory.restore rig.mem rig.pristine;
  Memory.write_u16_exn rig.mem rig.target_addr word;
  run_rig rig

let width = 16
let ncat = List.length Campaign.categories

type tally = { by_weight : Campaign.counts array; totals : Campaign.counts }

let make_tally () =
  { by_weight = Array.init (width + 1) (fun _ -> Array.make ncat 0);
    totals = Array.make ncat 0 }

type memo = {
  store : Runtime.Store.t;
  mutable executed : int;
  mutable memoized : int;
}

let make_memo store = { store; executed = 0; memoized = 0 }

let classify_word rig memo ~word =
  let c = Runtime.Store.get memo.store word in
  if c >= 0 then begin
    memo.memoized <- memo.memoized + 1;
    c
  end
  else begin
    let c = Campaign.category_index (run_word rig ~word) in
    Runtime.Store.set memo.store word c;
    memo.executed <- memo.executed + 1;
    c
  end

let record (config : Campaign.config) rig memo t ~mask =
  let flipped = Fault_model.flipped_bits config.flip ~width ~mask in
  let word = Fault_model.apply config.flip ~mask rig.target in
  let idx = classify_word rig memo ~word in
  t.by_weight.(flipped).(idx) <- t.by_weight.(flipped).(idx) + 1;
  if flipped > 0 then t.totals.(idx) <- t.totals.(idx) + 1

(* [(by_weight, totals, stats)] of one sequential sweep. *)
let run_case config case =
  let rig = make_rig config case in
  let memo = make_memo (Runtime.Store.create ~slots:(1 lsl width)) in
  let t = make_tally () in
  for mask = 0 to (1 lsl width) - 1 do
    record config rig memo t ~mask
  done;
  ( t.by_weight,
    t.totals,
    { Campaign.executed = memo.executed; memoized = memo.memoized } )
