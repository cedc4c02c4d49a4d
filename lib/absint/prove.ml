(* The glitch-gadget prover: for every conditional branch the pristine
   firmware actually reaches, ask what a direction-flipping fault at
   that guard can lead to. The abstract explorer ({!Interp}) walks the
   faulted continuation from the *wrong* edge, starting from the joined
   reach state refined with the direction the condition really took;
   every terminal is either a detection, a crash, a silent escape, or
   an unresolved path.

   The verdict per guard:

   - a deterministic escape witness (no speculative branch decisions on
     the path) is an [Error] — a single glitch provably reaches
     observable behaviour unchecked;
   - a speculative escape is a [Warning] — the finder cannot rule the
     path out, but imprecision may have invented it;
   - no escapes but unresolved paths is a [Warning] — the defense was
     not proven;
   - every path detected or crashed, exhaustively, is an [Info] — the
     defense is semantically proven at this guard, not just structurally
     present (the lint rules' view).

   Guards owned by runtime support ("__udiv" and friends) are reported
   at [Info] regardless, mirroring lint's guard-flippable policy: the
   paper's defenses only claim user code.

   Two static gadget scanners ride along: single-bit BL retargets that
   land at another function's entry (scored against the Domains
   clustering when configured), and Sigcfi signature collisions across
   functions. Both are [Info] — material for the defense-design audit
   rather than firmware bugs. *)

type guard = {
  g_addr : int;
  g_func : string;
  g_runtime : bool;
  g_scenarios : Interp.summary list;  (** one per feasible direction *)
}

type report = {
  cfg : Analysis.Cfg.t;
  guards_total : int;  (** conditionals in the recovered CFG *)
  guards_reached : int;  (** with a pristine reach state *)
  scenarios : int;
  proven : int;  (** guards with every faulted path detected/crashed *)
  escapes : int;  (** guards with at least one escape terminal *)
  unproven : int;  (** reached, not proven, no escape witness *)
  reach_complete : bool;
  diags : Analysis.Lint.diag list;
}

let reach_budget = 40_000
let scenario_budget = 6_000

let sev_rank = function
  | Analysis.Lint.Error -> 0
  | Analysis.Lint.Warning -> 1
  | Analysis.Lint.Info -> 2

let sort_diags =
  List.sort (fun (a : Analysis.Lint.diag) b ->
      match compare (sev_rank a.severity) (sev_rank b.severity) with
      | 0 -> ( match compare a.rule b.rule with 0 -> compare a.addr b.addr | c -> c)
      | c -> c)

(* --- per-guard fault scenarios ------------------------------------------- *)

let scenarios_of_guard ctx reach (insn : Analysis.Cfg.insn) =
  match insn.instr with
  | Thumb.Instr.B_cond (cond, off) -> (
    match Hashtbl.find_opt reach insn.addr with
    | None -> None (* never reached by the pristine run: no fault to flip *)
    | Some st ->
      let taken = insn.addr + 4 + (off * 2) and fall = insn.addr + 2 in
      let may_t, may_f = Astate.cond_outcomes st.Astate.flags cond in
      let run actual wrong_target =
        let st0 = Astate.refine_cond (Astate.copy st) cond actual in
        fst (Interp.explore ctx ~sinks:true ~max_steps:scenario_budget st0 wrong_target)
      in
      let ss = [] in
      let ss = if may_t then run true fall :: ss else ss in
      let ss = if may_f then run false taken :: ss else ss in
      Some ss)
  | _ -> None

type verdict = Proven | Escape of Interp.terminal * bool | Unproven of string

let judge (scenarios : Interp.summary list) =
  let terminals = List.concat_map (fun s -> s.Interp.terminals) scenarios in
  let escapes =
    List.filter_map
      (function Interp.Escaped e -> Some (Interp.Escaped e, e.forks = 0) | _ -> None)
      terminals
  in
  match List.find_opt snd escapes with
  | Some (t, _) -> Escape (t, true)
  | None -> (
    match escapes with
    | (t, _) :: _ -> Escape (t, false)
    | [] ->
      if List.for_all (fun s -> s.Interp.complete) scenarios then Proven
      else
        let reason =
          match
            List.find_map
              (function Interp.Unresolved u -> Some u.reason | _ -> None)
              terminals
          with
          | Some r -> r
          | None -> "path budget exhausted"
        in
        Unproven reason)

let diag_of_guard (g : guard) =
  let open Analysis.Lint in
  let mk severity rule message =
    { rule; severity; func = g.g_func; addr = g.g_addr; message }
  in
  let soften s = if g.g_runtime then Info else s in
  match judge g.g_scenarios with
  | Proven ->
    let n = List.fold_left (fun n s -> n + List.length s.Interp.terminals) 0 g.g_scenarios in
    mk Info "fault-flow-proven"
      (Fmt.str
         "direction flip proven harmless: all %d faulted paths end in detection or crash"
         n)
  | Escape (t, deterministic) ->
    mk
      (soften (if deterministic then Error else Warning))
      "fault-flow-escape"
      (Fmt.str "direction flip %s: %a%s"
         (if deterministic then "escapes deterministically"
          else "may escape (speculative path)")
         Interp.pp_terminal t
         (if g.g_runtime then " [runtime support]" else ""))
  | Unproven reason ->
    mk (soften Warning) "fault-flow-unproven"
      (Fmt.str "no escape found, but the flip is not proven harmless: %s" reason)

(* --- BL retarget scanner ------------------------------------------------- *)

(* One-bit flips of a BL-suffix halfword that still decode as a BL
   suffix move the call target by (delta lsl 1); when the perturbed
   target is another function's entry the call is a classic glitch
   gadget. Domains clustering catches exactly the cross-cluster ones. *)
let retarget_diags (cfg : Analysis.Cfg.t) domains =
  let fn_entries =
    List.map (fun (f : Analysis.Cfg.fn) -> (f.entry, f.name)) cfg.funcs
  in
  let cluster f =
    Option.bind domains (fun d -> List.assoc_opt f d)
  in
  List.concat_map
    (fun (i : Analysis.Cfg.insn) ->
      match i.instr with
      | Thumb.Instr.Bl_lo off ->
        let caller =
          Option.value ~default:"?" (Analysis.Cfg.owner cfg i.addr)
        in
        List.filter_map
          (fun bit ->
            let word' = i.word lxor (1 lsl bit) in
            match Thumb.Decode.table.(word' land 0xFFFF) with
            | Thumb.Instr.Bl_lo off' when off' <> off ->
              (* same BL pair, perturbed suffix: the original suffix
                 resolves lr + off<<1, so the perturbed call lands
                 (off'-off)<<1 away from the original destination *)
              let orig =
                List.find_opt
                  (fun b -> List.mem_assoc b fn_entries)
                  (Analysis.Cfg.block_at cfg i.addr
                  |> Option.map (fun (b : Analysis.Cfg.block) -> b.calls)
                  |> Option.value ~default:[])
              in
              Option.bind orig (fun orig_target ->
                  let t' = orig_target + ((off' - off) lsl 1) in
                  match List.assoc_opt t' fn_entries with
                  | Some victim when t' <> orig_target ->
                    let covered =
                      match (cluster caller, cluster victim) with
                      | Some a, Some b -> a <> b
                      | _ -> false
                    in
                    if covered then None
                    else
                      Some
                        { Analysis.Lint.rule = "fault-flow-retarget";
                          severity = Analysis.Lint.Info;
                          func = caller;
                          addr = i.addr;
                          message =
                            Fmt.str
                              "bit %d flip retargets this call to %s%s" bit
                              victim
                              (match domains with
                              | Some _ -> " within the same domain cluster"
                              | None -> " (no domain clustering configured)")
                        }
                  | _ -> None)
            | _ -> None)
          (List.init 11 Fun.id)
      | _ -> [])
    (Analysis.Cfg.reachable_insns cfg)

(* --- Sigcfi collision scanner -------------------------------------------- *)

let collision_diags (modul : Ir.modul option)
    (sigcfi : Resistor.Sigcfi.report option) =
  match (modul, sigcfi) with
  | Some m, Some r ->
    let sigs =
      List.concat_map
        (fun (f : Ir.func) ->
          List.map
            (fun (b : Ir.block) ->
              (f.fname, b.label, Resistor.Sigcfi.signature ~key:r.key f.fname b.label))
            f.blocks)
        m.funcs
    in
    let rec pairs acc = function
      | [] -> acc
      | (f1, l1, s1) :: rest ->
        let acc =
          List.fold_left
            (fun acc (f2, l2, s2) ->
              if s1 = s2 && f1 <> f2 && List.length acc < 8 then
                { Analysis.Lint.rule = "fault-flow-collision";
                  severity = Analysis.Lint.Info;
                  func = f1;
                  addr = 0;
                  message =
                    Fmt.str
                      "sigcfi signature 0x%02x of %s.%s collides with %s.%s: \
                       a retarget between them passes the sink check"
                      s1 f1 l1 f2 l2 }
                :: acc
              else acc)
            acc rest
        in
        pairs acc rest
    in
    List.rev (pairs [] sigs)
  | _ -> []

(* --- entry point --------------------------------------------------------- *)

let run ?config ?(reports : Resistor.Driver.reports option) ?modul
    (image : Lower.Layout.image) =
  ignore config;
  let cfg, ctx = Interp.create image in
  let reach_summary, reach =
    Interp.explore ctx ~sinks:false ~max_steps:reach_budget
      (Astate.init image) image.entry
  in
  let guards =
    List.filter_map
      (fun (i : Analysis.Cfg.insn) ->
        match scenarios_of_guard ctx reach i with
        | None -> None
        | Some ss ->
          let func =
            Option.value ~default:"?" (Analysis.Cfg.owner cfg i.addr)
          in
          Some
            { g_addr = i.addr;
              g_func = func;
              g_runtime =
                String.length func >= 2 && String.sub func 0 2 = "__";
              g_scenarios = ss })
      (Analysis.Cfg.conditionals cfg)
  in
  let guard_diags = List.map diag_of_guard guards in
  let domains =
    Option.bind reports (fun (r : Resistor.Driver.reports) ->
        Option.map
          (fun (d : Resistor.Domains.report) -> d.domains)
          r.domains_report)
  in
  let sigcfi = Option.bind reports (fun r -> r.Resistor.Driver.sigcfi_report) in
  let diags =
    sort_diags
      (guard_diags @ retarget_diags cfg domains @ collision_diags modul sigcfi)
  in
  let count rule =
    List.length (List.filter (fun (d : Analysis.Lint.diag) -> d.rule = rule) guard_diags)
  in
  { cfg;
    guards_total = List.length (Analysis.Cfg.conditionals cfg);
    guards_reached = List.length guards;
    scenarios = List.fold_left (fun n g -> n + List.length g.g_scenarios) 0 guards;
    proven = count "fault-flow-proven";
    escapes = count "fault-flow-escape";
    unproven = count "fault-flow-unproven";
    reach_complete = reach_summary.Interp.complete;
    diags }

let errors r =
  List.filter
    (fun (d : Analysis.Lint.diag) -> d.severity = Analysis.Lint.Error)
    r.diags

(* --- dataflow-backed lint refinement ------------------------------------- *)

(* The structural guard-flippable rule grades a guard by whether a
   complemented duplicate exists anywhere in the owning function; the
   abstract explorer grades the actual faulted continuation. Where both
   have an opinion on the same guard the semantic verdict wins:

   - structurally unprotected (Error) but semantically proven — every
     faulted path ends in detection or crash, so nothing exploitable
     survives the missing duplicate: downgraded to Info;
   - structurally protected (Info/Warning) but deterministically
     escaping — the duplicate exists yet never re-checks the faulted
     path: upgraded to Error.

   Everything else (other rules, runtime support, speculative or
   unproven verdicts) passes through untouched, and the prover's own
   findings are merged so the refined report carries the evidence for
   each re-grade. *)
let refine_lint (lint : Analysis.Lint.report) (r : report) =
  let verdict_at addr =
    List.find_opt
      (fun (d : Analysis.Lint.diag) ->
        d.addr = addr
        && (d.rule = "fault-flow-proven" || d.rule = "fault-flow-escape"
          || d.rule = "fault-flow-unproven"))
      r.diags
  in
  let refined =
    List.map
      (fun (d : Analysis.Lint.diag) ->
        if d.rule <> "guard-flippable" then d
        else
          match verdict_at d.addr with
          | Some { rule = "fault-flow-proven"; _ }
            when d.severity = Analysis.Lint.Error ->
            { d with
              severity = Analysis.Lint.Info;
              message =
                d.message
                ^ "; absint: every faulted continuation provably ends in \
                   detection or crash" }
          | Some { rule = "fault-flow-escape"; severity = Analysis.Lint.Error; _ }
            when d.severity <> Analysis.Lint.Error ->
            { d with
              severity = Analysis.Lint.Error;
              message =
                d.message
                ^ "; absint: a deterministic escape survives the duplicate" }
          | _ -> d)
      lint.Analysis.Lint.diags
  in
  sort_diags (refined @ r.diags)

let to_json r =
  Json.Obj
    [ ("guards", Json.Int r.guards_total);
      ("reached", Json.Int r.guards_reached);
      ("scenarios", Json.Int r.scenarios);
      ("proven", Json.Int r.proven);
      ("escapes", Json.Int r.escapes);
      ("unproven", Json.Int r.unproven);
      ("reach_complete", Json.Bool r.reach_complete);
      ("diags", Json.List (List.map Analysis.Lint.diag_to_json r.diags)) ]

let pp ppf r =
  List.iter (fun d -> Fmt.pf ppf "%a@." Analysis.Lint.pp_diag d) r.diags;
  Fmt.pf ppf
    "%d guards (%d reached by the pristine run, %d fault scenarios): %d \
     proven, %d with escapes, %d unproven%s@."
    r.guards_total r.guards_reached r.scenarios r.proven r.escapes r.unproven
    (if r.reach_complete then "" else " [reach exploration incomplete]")
