(* The sound static pre-pruner for Exhaust.Campaign (transient mode).

   After the injected step executes, the campaign knows the exact
   post-fault machine state; the baseline trace records the exact state
   the pristine run had at the same cycle. Their difference is the
   complete fault damage. Seed a taint set with the differing
   registers/flags (refusing any PC or memory difference) and push it
   forward along the *remaining baseline instructions* — which are
   exactly what the continuation will execute as long as control never
   diverges — with per-instruction transfer metadata (Effects):

   - an instruction whose inputs are all clean overwrites its
     destinations with the baseline's values: taint dies there;
   - a tainted input to a pure register op taints its destinations;
   - a tainted input to anything control-relevant (conditional flags,
     indirect-branch registers) or memory-relevant (address or store
     data) is refused — the continuation could diverge, fault, or
     corrupt memory, so the point is left to the dynamic engine.

   Invariant maintained: at every step the continuation's state equals
   the baseline's except in tainted registers/flags, and memory is
   bit-identical. Hence:

   - terminating baseline, taint dead by the end, settle budget covers
     the remaining steps: the continuation reproduces the baseline's
     stop and final state exactly — its verdict is the baseline end's
     own classification;
   - non-terminating baseline, window covered (k+1+settle <= n) and no
     detection anywhere in the trace: the continuation is still running
     at its budget with memory identical to the baseline — No_effect —
     even if register taint persists (the built-in classifier compares
     no state in that case).

   Anything else returns None and is executed dynamically. *)

type ctx = {
  effs : Effects.t array;  (** per-cycle decoded instruction effects *)
  n : int;  (** trace length *)
  terminating : bool;
  settle : int;
  end_verdict : int;  (** verdict of a perfect baseline replay *)
  no_effect_ok : bool;  (** non-terminating: builtin classifier, det = 0 *)
  no_effect_verdict : int;
  proved : int Atomic.t;  (** points proven without emulation (all domains) *)
}

let create ~steps ~terminating ~settle ~end_verdict ~no_effect_ok
    ~no_effect_verdict () =
  { effs =
      Array.map
        (fun (_, w) -> Effects.of_instr Thumb.Decode.table.(w land 0xFFFF))
        steps;
    n = Array.length steps;
    terminating;
    settle;
    end_verdict;
    no_effect_ok;
    no_effect_verdict;
    proved = Atomic.make 0 }

let proved ctx = Atomic.get ctx.proved

(* State keys are exact serializations (Exhaust.State): r0..r15 as 4
   bytes LE each, one NZCV byte, then touched-and-dirty memory. Equal
   suffix <=> identical memory. *)
let regs_bytes = 64
let flag_index = 64
let header = 65

(* Diff two keys into a (reg mask, flag mask) taint seed; None when the
   damage is not representable (PC or memory differs). *)
let seed base fault =
  if String.length base < header || String.length fault < header then None
  else if
    (* memory tails must be bit-identical *)
    String.length base <> String.length fault
    || not
         (String.equal
            (String.sub base header (String.length base - header))
            (String.sub fault header (String.length fault - header)))
  then None
  else begin
    let regs = ref 0 in
    for i = 0 to 15 do
      let off = 4 * i in
      if
        base.[off] <> fault.[off]
        || base.[off + 1] <> fault.[off + 1]
        || base.[off + 2] <> fault.[off + 2]
        || base.[off + 3] <> fault.[off + 3]
      then regs := !regs lor (1 lsl i)
    done;
    let flags = Char.code base.[flag_index] lxor Char.code fault.[flag_index] in
    if !regs land (1 lsl 15) <> 0 then None  (* control already diverged *)
    else Some (!regs land 0xFFFF, flags land 0xF)
  end

(* Push the taint through baseline step [j]'s instruction. Returns the
   new (regs, flags) taint, or None on a refusal. *)
let flow_step (e : Effects.t) regs flags =
  match e.ctrl with
  | Effects.Cond _ ->
    (* same direction as the baseline iff the condition's flags are
       clean; the branch writes nothing *)
    if e.flag_reads land flags <> 0 then None else Some (regs, flags)
  | Effects.Diverts ->
    (* indirect targets / trap state must be baseline-equal *)
    if e.reads land regs <> 0 then None
    else Some (regs land lnot e.writes, flags land lnot e.flag_writes)
  | Effects.Straight -> (
    match e.mem with
    | Effects.No_mem ->
      if e.reads land regs <> 0 || e.flag_reads land flags <> 0 then
        (* tainted inputs propagate to every destination *)
        Some (regs lor e.writes, flags lor e.flag_writes)
      else
        (* clean inputs: destinations take baseline values — taint dies *)
        Some (regs land lnot e.writes, flags land lnot e.flag_writes)
    | Effects.Load | Effects.Store ->
      (* tainted addresses or store data would diverge memory or fault
         differently; clean ones replay the baseline access exactly, so
         loaded destinations are baseline values *)
      if e.reads land regs <> 0 then None
      else Some (regs land lnot e.writes, flags land lnot e.flag_writes))

let prove ctx ~cycle ~base_key ~fault_key =
  let k = cycle in
  (* the settle budget must provably cover the continuation *)
  let covered =
    if ctx.terminating then ctx.settle >= ctx.n - (k + 1)
    else ctx.no_effect_ok && k + 1 + ctx.settle <= ctx.n
  in
  if not covered then None
  else
    match seed base_key fault_key with
    | None -> None
    | Some (regs0, flags0) ->
      let hi = if ctx.terminating then ctx.n - 1 else k + ctx.settle in
      let rec flow j regs flags =
        if regs = 0 && flags = 0 then
          (* identical to the baseline from here on *)
          Some (if ctx.terminating then ctx.end_verdict else ctx.no_effect_verdict)
        else if j > hi then
          if ctx.terminating then None  (* final state still differs *)
          else Some ctx.no_effect_verdict
        else if Mutant.is Absint_taint then flow (j + 1) 0 0
        else
          match flow_step ctx.effs.(j) regs flags with
          | None -> None
          | Some (regs, flags) -> flow (j + 1) regs flags
      in
      let r = flow (k + 1) regs0 flags0 in
      (match r with Some _ -> Atomic.incr ctx.proved | None -> ());
      r
