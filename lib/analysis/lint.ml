(* The defense auditor: structural lint rules that verify
   GlitchResistor postconditions in the artifact (image + IR) instead
   of trusting that the passes ran.  Severity encodes the contract:

   - Error: a defense the configuration promises is missing, or the
     artifact has a control-flow hazard nothing re-checks (an
     unprotected single-bit-flippable guard);
   - Warning: suspicious but not provably wrong (image-only lint with
     no IR to consult, unpaired BL halves, verifier lint findings);
   - Info: expected residue worth surfacing (protected guards, runtime
     support outside the defense scope, computed targets). *)

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type diag = {
  rule : string;
  severity : severity;
  func : string;
  addr : int;
  message : string;
}

type target = {
  image : Lower.Layout.image;
  modul : Ir.modul option;
  reports : Resistor.Driver.reports option;
}

type report = {
  cfg : Cfg.t;
  surface : Surface.t;
  diags : diag list;
}

let of_image image =
  { image; modul = None; reports = None }

let of_compiled (c : Resistor.Driver.compiled) =
  { image = c.image;
    modul = Some c.modul;
    reports = Some c.reports }

let of_instrs instrs =
  let words = Array.of_list (List.map Thumb.Encode.instr instrs) in
  let base = Lower.Layout.text_base in
  let image : Lower.Layout.image =
    { words;
      text = { base; size = 2 * Array.length words };
      data = { base = Lower.Layout.sram_base; size = 0 };
      bss = { base = Lower.Layout.sram_base; size = 0 };
      data_init = [];
      symbols = [ ("snippet", base) ];
      global_addrs = [];
      entry = base;
      stack_top = Machine.Loader.stm32_layout.stack_top }
  in
  of_image image

(* ------------------------------------------------------------------ *)
(* IR structure: recognising the shapes the passes leave behind.      *)

let is_detect_arm (b : Ir.block) = List.exists Resistor.Detect.is_call b.instrs

let detector_labels (f : Ir.func) =
  List.filter_map
    (fun (b : Ir.block) -> if is_detect_arm b then Some b.label else None)
    f.blocks

(* CFI edge-splitting (the Sigcfi glue) runs after the other passes and
   inserts a pass-through block on every edge: a forwarder whose only
   instructions are runtime-helper calls (and that is not itself a
   detector arm) is transparent to the structural audit. *)
let is_forwarder (b : Ir.block) =
  (match b.term with Ir.Br _ -> true | _ -> false)
  && List.for_all
       (function
         | Ir.Call { callee; _ } as i ->
           (not (Resistor.Detect.is_call i))
           && Resistor.Pass.is_runtime_helper callee
         | _ -> false)
       b.instrs

let rec resolve_label (f : Ir.func) ?(depth = 4) l =
  if depth = 0 then l
  else
    match Ir.find_block f l with
    | Some ({ Ir.term = Ir.Br next; _ } as b) when is_forwarder b ->
      resolve_label f ~depth:(depth - 1) next
    | _ -> l

let is_check_block f dets (b : Ir.block) =
  match b.term with
  | Ir.Cond_br { if_true; if_false; _ } ->
    List.mem (resolve_label f if_true) dets
    || List.mem (resolve_label f if_false) dets
  | _ -> false

type protection =
  | Protected  (** every guard edge re-checked by a complemented copy *)
  | Unguarded of { branches : int; loops : int }
  | No_conditionals

(* Loops on the *final* IR.  Source-level notions like "back-edge
   target" stop working once the passes split blocks (Integrity moves
   the loop condition out of the original header), so we use the
   topological definition: a loop is a non-trivial SCC, and a
   loop-exit guard is a conditional block inside a cycle with a
   successor outside its SCC.  That escaping edge is what the Loops
   pass must route through a complemented re-check.  Returns each
   loop-exit guard paired with its escaping successor labels. *)
let loop_exit_guards dets (f : Ir.func) =
  let { Ir.nodes = blocks; succs; comp; in_cycle; _ } = Ir.sccs f in
  let guards = ref [] in
  Array.iteri
    (fun v (b : Ir.block) ->
      match b.term with
      | Ir.Cond_br _ when in_cycle.(v) && not (is_check_block f dets b) ->
        let exits =
          List.filter_map
            (fun w ->
              if comp.(w) <> comp.(v) then Some blocks.(w).Ir.label else None)
            succs.(v)
        in
        if exits <> [] then guards := (b.label, exits) :: !guards
      | _ -> ())
    blocks;
  List.rev !guards

let audit_func (f : Ir.func) =
  let dets = detector_labels f in
  let is_check l =
    match Ir.find_block f (resolve_label f l) with
    | Some b -> is_check_block f dets b
    | None -> false
  in
  let cond_blocks =
    List.filter
      (fun (b : Ir.block) ->
        (match b.term with Ir.Cond_br _ -> true | _ -> false)
        && not (is_check_block f dets b))
      f.blocks
  in
  if cond_blocks = [] then No_conditionals
  else begin
    let unguarded_branches =
      List.length
        (List.filter
           (fun (b : Ir.block) ->
             match b.term with
             | Ir.Cond_br { if_true; _ } -> not (is_check if_true)
             | _ -> false)
           cond_blocks)
    in
    let unguarded_loops =
      List.length
        (List.filter
           (fun (_, exits) -> List.exists (fun l -> not (is_check l)) exits)
           (loop_exit_guards dets f))
    in
    if unguarded_branches = 0 && unguarded_loops = 0 then Protected
    else Unguarded { branches = unguarded_branches; loops = unguarded_loops }
  end

let loop_header_count (f : Ir.func) =
  List.length (loop_exit_guards (detector_labels f) f)

(* ------------------------------------------------------------------ *)

let hamming a b = Glitch_emu.Bitmask.popcount ((a lxor b) land 0xFFFFFFFF)

let min_pairwise values =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | v :: rest ->
      let acc =
        List.fold_left (fun acc w -> min acc (hamming v w)) acc rest
      in
      go acc rest
  in
  go max_int values

(* A 32-bit constant is materialised either in a literal pool (two
   consecutive halfwords, low first) or as a global initialiser. *)
let constant_in_image (image : Lower.Layout.image) v =
  let v = v land 0xFFFFFFFF in
  let words = image.words in
  let n = Array.length words in
  let rec scan i =
    i + 1 < n
    && (words.(i) lor (words.(i + 1) lsl 16) = v || scan (i + 1))
  in
  scan 0 || List.exists (fun (_, init) -> init land 0xFFFFFFFF = v) image.data_init

let fn_addr (image : Lower.Layout.image) name =
  Option.value ~default:0 (List.assoc_opt name image.symbols)

(* ------------------------------------------------------------------ *)

let run (t : target) =
  let cfg = Cfg.of_image t.image in
  let surface = Surface.analyze cfg in
  let diags = ref [] in
  let diag rule severity func addr fmt =
    Fmt.kstr
      (fun message ->
        diags := { rule; severity; func; addr; message } :: !diags)
      fmt
  in
  let owner = Cfg.owner cfg in
  let owner addr = Option.value ~default:"?" (owner addr) in

  (* --- CFG recovery anomalies ------------------------------------ *)
  List.iter
    (fun a ->
      let addr = Cfg.anomaly_addr a in
      let func = owner addr in
      match a with
      | Cfg.Fallthrough_off _ ->
        diag "cfg-fallthrough" Error func addr "%a" Cfg.pp_anomaly a
      | Cfg.Target_outside _ ->
        diag "cfg-target" Error func addr "%a" Cfg.pp_anomaly a
      | Cfg.Undecodable _ ->
        diag "cfg-undecodable" Warning func addr "%a" Cfg.pp_anomaly a
      | Cfg.Dangling_bl _ ->
        diag "cfg-dangling-bl" Warning func addr "%a" Cfg.pp_anomaly a
      | Cfg.Computed_target _ ->
        diag "cfg-computed" Info func addr "%a" Cfg.pp_anomaly a
      | Cfg.Unreachable_code _ ->
        diag "cfg-unreachable" Info func addr "%a" Cfg.pp_anomaly a)
    cfg.anomalies;

  (* --- guard flippability ----------------------------------------- *)
  let audits = Hashtbl.create 16 in
  let audit name =
    match Hashtbl.find_opt audits name with
    | Some a -> a
    | None ->
      let a =
        Option.bind t.modul (fun m ->
            Option.map audit_func (Ir.find_func m name))
      in
      Hashtbl.add audits name a;
      a
  in
  List.iter
    (fun (i : Cfg.insn) ->
      let p = Surface.profile_word ~addr:i.addr i.word in
      let fname = owner i.addr in
      let flips =
        Fmt.str "%a: direction flip via %d one-bit mask(s)%s, escape via %d"
          Thumb.Instr.pp i.instr
          (List.length p.direction_masks)
          (match p.direction_masks with
          | m :: _ -> Fmt.str " (e.g. 0x%04x)" m
          | [] -> "")
          (List.length p.escape_masks)
      in
      match audit fname with
      | None when t.modul = None ->
        diag "guard-flippable" Warning fname i.addr
          "%s; no IR available, assuming unprotected" flips
      | None ->
        diag "guard-flippable" Info fname i.addr
          "%s; runtime support, outside the defense scope" flips
      | Some Protected ->
        diag "guard-flippable" Info fname i.addr
          "%s; re-checked by a complemented duplicate" flips
      | Some No_conditionals ->
        diag "guard-flippable" Info fname i.addr
          "%s; materialised comparison, not a guard" flips
      | Some (Unguarded _) ->
        diag "guard-flippable" Error fname i.addr
          "single-bit flippable guard with no duplicate: %s" flips)
    (Cfg.conditionals cfg);

  (* --- pass postconditions (configuration promises) ---------------- *)
  (match (t.modul, t.reports) with
  | Some m, Some r ->
    let branches_ran = r.branches_report <> None in
    let loops_ran = r.loops_report <> None in
    List.iter
      (fun (f : Ir.func) ->
        let addr = fn_addr t.image f.fname in
        (match audit_func f with
        | Unguarded { branches; _ } when branches_ran && branches > 0 ->
          diag "branch-duplication" Error f.fname addr
            "%d conditional branch(es) lack the complemented re-check \
             promised by the Branches pass"
            branches
        | Unguarded { loops; _ } when loops_ran && loops > 0 ->
          diag "loop-false-edge" Error f.fname addr
            "%d loop header(s) can escape on an unchecked false edge \
             despite the Loops pass"
            loops
        | _ -> ());
        if branches_ran && (not loops_ran) && loop_header_count f > 0 then
          diag "loop-false-edge" Warning f.fname addr
            "loop guards re-checked only on the taken edge (Branches \
             without Loops): a direction flip still escapes the loop")
      m.funcs
  | _ -> ());

  (* --- diversified constants at the binary level ------------------- *)
  (* Each constant must be linked into the image, and a set of two or
     more must sit at pairwise Hamming distance >= 8. *)
  let audit_distances rule func addr constants ~absent ~close ~spread =
    let values = List.map snd constants in
    let d = min_pairwise values in
    List.iter
      (fun (name, v) ->
        if not (constant_in_image t.image v) then
          diag rule Warning func addr "%s" (absent name v))
      constants;
    if List.length values > 1 && d < 8 then diag rule Error func addr "%s" (close d)
    else diag rule Info func addr "%s" (spread (List.length values) d)
  in
  (match t.reports with
  | Some { enum_report = Some er; _ } ->
    List.iter
      (fun (ename, members) ->
        audit_distances "enum-hamming" "<image>" 0 members
          ~absent:
            (Fmt.str
               "enum %s member %s = 0x%08x not found in the image (dead \
                code or re-encoded)"
               ename)
          ~close:(Fmt.str "enum %s: min pairwise Hamming distance %d < 8" ename)
          ~spread:(fun n d ->
            Fmt.str "enum %s: %d member(s), min pairwise Hamming distance %d"
              ename n
              (if n = 0 then 0 else d)))
      er.rewritten
  | _ -> ());
  (match t.reports with
  | Some { returns_report = Some rr; _ } ->
    List.iter
      (fun (fname, pairs) ->
        audit_distances "return-hamming" fname (fn_addr t.image fname) pairs
          ~absent:(fun _ ->
            Fmt.str "diversified return code 0x%08x not found in the image")
          ~close:
            (Fmt.str "return codes at min pairwise Hamming distance %d < 8")
          ~spread:(fun n d ->
            Fmt.str "%d diversified return code(s)%s" n
              (if n > 1 then Fmt.str ", min distance %d" d else "")))
      rr.instrumented
  | _ -> ());

  (* --- runtime support each defense needs -------------------------- *)
  let in_image rule name what =
    if not (List.mem_assoc name t.image.global_addrs) then
      diag rule Error "<image>" 0 "%s missing from the image" what
  in
  let in_module (m : Ir.modul) rule name what =
    if Ir.find_func m name = None then
      diag rule Error "<module>" 0 "%s missing from the module" what
  in
  (* [b] loads [global] and compares something: a signature check *)
  let loads_and_compares global (b : Ir.block) =
    List.exists
      (function Ir.Load { src = Ir.Global s; _ } -> s = global | _ -> false)
      b.instrs
    && List.exists (function Ir.Icmp _ -> true | _ -> false) b.instrs
  in

  (* --- integrity shadows ------------------------------------------- *)
  (match (t.modul, t.reports) with
  | Some m, Some { integrity_report = Some ir; _ } ->
    let access = function
      | Ir.Store { dst = Ir.Global name; _ } -> Some (`Store, name)
      | Ir.Load { src = Ir.Global name; _ } -> Some (`Load, name)
      | _ -> None
    in
    List.iter
      (fun (g, shadow) ->
        in_image "integrity-shadow" shadow
          (Fmt.str "shadow global %s for %s" shadow g);
        List.iter
          (fun (f : Ir.func) ->
            let addr = fn_addr t.image f.fname in
            List.iter
              (fun (b : Ir.block) ->
                let rec check = function
                  | [] -> ()
                  | i :: rest ->
                    (match access i with
                    | Some (kind, name)
                      when name = g
                           && not
                                (List.exists
                                   (fun j -> access j = Some (kind, shadow))
                                   rest) -> (
                      match kind with
                      | `Store ->
                        diag "integrity-shadow" Error f.fname addr
                          "store to %s in block %s has no complement store \
                           to %s"
                          g b.label shadow
                      | `Load ->
                        diag "integrity-shadow" Error f.fname addr
                          "load of %s in block %s is not cross-checked \
                           against %s"
                          g b.label shadow)
                    | _ -> ());
                    check rest
                in
                check b.instrs)
              f.blocks)
          m.funcs)
      ir.protected
  | _ -> ());

  (* --- CFCSS signatures (and the Table VII witness) ----------------- *)
  (match (t.modul, t.reports) with
  | Some m, Some { cfcss_report = Some cr; _ } ->
    let sig_global = Resistor.Cfcss.signature_global in
    in_image "cfcss-signature" sig_global ("signature variable " ^ sig_global);
    let unchecked = ref 0 in
    List.iter
      (fun (f : Ir.func) ->
        let addr = fn_addr t.image f.fname in
        let preds = Ir.predecessors f in
        let guards_entry (b : Ir.block) =
          List.exists
            (function
              | Ir.Load { src = Ir.Global s; _ } -> s = sig_global
              | Ir.Icmp { rhs = Ir.Const _; _ }
              | Ir.Icmp { lhs = Ir.Const _; _ } -> true
              | i -> Resistor.Detect.is_call i)
            b.instrs
        in
        List.iter
          (fun (b : Ir.block) ->
            match b.instrs with
            | Ir.Store { dst = Ir.Global s; _ } :: _ when s = sig_global ->
              List.iter
                (fun p ->
                  match Ir.find_block f p with
                  | Some pb when not (guards_entry pb) ->
                    incr unchecked;
                    diag "cfcss-signature" Error f.fname addr
                      "signed block %s entered from %s without a signature \
                       check"
                      b.label p
                  | _ -> ())
                (preds b.label)
            | _ -> ())
          f.blocks)
      m.funcs;
    if !unchecked = 0 then
      diag "cfcss-signature" Info "<module>" 0
        "CFCSS audit clean: %d block(s) signed, %d check(s) inserted — \
         yet every guard below remains direction-flippable along legal \
         edges (the Table VII limitation)"
        cr.blocks_signed cr.checks_inserted
  | _ -> ());

  (* --- sigcfi running signatures ------------------------------------ *)
  (match (t.modul, t.reports) with
  | Some m, Some { sigcfi_report = Some sr; _ } ->
    let state = Resistor.Sigcfi.state_global in
    in_image "sigcfi-state" state ("state accumulator " ^ state);
    in_module m "sigcfi-state" Resistor.Sigcfi.step_fn
      ("update helper " ^ Resistor.Sigcfi.step_fn);
    let bad = ref 0 in
    List.iter
      (fun (f : Ir.func) ->
        if not (Resistor.Pass.is_runtime_helper f.fname) then begin
          let addr = fn_addr t.image f.fname in
          (* the entry must re-seed the accumulator before anything else *)
          (match f.blocks with
          | { Ir.instrs = Ir.Store { dst = Ir.Global s; src = Ir.Const _; _ } :: _;
              _ }
            :: _
            when s = state ->
            ()
          | _ ->
            incr bad;
            diag "sigcfi-seed" Error f.fname addr
              "entry does not seed the running signature");
          (* every return must be dominated by a signature check: all its
             predecessors either load-and-compare the state or are the
             detector-calling bad arm of such a check *)
          let preds = Ir.predecessors f in
          let guarded p =
            match Ir.find_block f p with
            | Some pb -> loads_and_compares state pb || is_detect_arm pb
            | None -> false
          in
          List.iter
            (fun (b : Ir.block) ->
              match b.term with
              | Ir.Ret _ ->
                let ps = preds b.label in
                if ps = [] || not (List.for_all guarded ps) then begin
                  incr bad;
                  diag "sigcfi-sink" Error f.fname addr
                    "return in block %s is not dominated by a signature check"
                    b.label
                end
              | _ -> ())
            f.blocks
        end)
      m.funcs;
    if !bad = 0 then
      diag "sigcfi-sink" Info "<module>" 0
        "Sigcfi audit clean: %d block(s) signed, %d edge update(s), %d sink \
         check(s) — an illegal edge still passes a sink with p~1/256 (8-bit \
         state) and legal-edge direction flips stay invisible (the Table VII \
         limitation)"
        sr.blocks_signed sr.updates_inserted sr.checks_inserted
  | _ -> ());

  (* --- scramble domains --------------------------------------------- *)
  (match (t.modul, t.reports) with
  | Some m, Some { domains_report = Some dr; _ } ->
    let reg = Resistor.Domains.domain_global in
    in_image "domains-check" reg ("domain register " ^ reg);
    in_module m "domains-check" Resistor.Domains.bridge_fn
      ("bridge helper " ^ Resistor.Domains.bridge_fn);
    let bad = ref 0 in
    List.iter
      (fun (fname, _cluster) ->
        match Ir.find_func m fname with
        | None ->
          incr bad;
          diag "domains-check" Error fname 0
            "partitioned function disappeared from the module"
        | Some f -> (
          match f.blocks with
          | b :: _ when loads_and_compares reg b -> ()
          | _ ->
            incr bad;
            diag "domains-check" Error fname (fn_addr t.image fname)
              "entry does not compare %s against the cluster key" reg))
      dr.domains;
    if !bad = 0 then
      diag "domains-check" Info "<module>" 0
        "Domains audit clean: %d function(s) in %d cluster(s), %d bridge(s), \
         %d check(s) — flow that stays inside its cluster is invisible to the \
         domain register (Table VII-style residue)"
        (List.length dr.domains) dr.clusters dr.bridges dr.checks_inserted
  | _ -> ());

  (* --- verifier lint findings -------------------------------------- *)
  (match t.reports with
  | Some r ->
    List.iter
      (fun (pass, (v : Ir.Verify.violation)) ->
        diag "verify-warning" Warning v.func (fn_addr t.image v.func)
          "after pass %s: %s" pass v.message)
      r.verify_warnings
  | None -> ());

  let diags =
    List.sort
      (fun a b ->
        match compare (severity_rank a.severity) (severity_rank b.severity) with
        | 0 -> (
          match compare a.rule b.rule with
          | 0 -> compare a.addr b.addr
          | c -> c)
        | c -> c)
      (List.rev !diags)
  in
  { cfg; surface; diags }

let errors r = List.filter (fun d -> d.severity = Error) r.diags
let warnings r = List.filter (fun d -> d.severity = Warning) r.diags

let count sev r =
  List.length (List.filter (fun d -> d.severity = sev) r.diags)

(* ------------------------------------------------------------------ *)

let diag_to_json d =
  Json.Obj
    [ ("rule", Json.String d.rule);
      ("severity", Json.String (severity_name d.severity));
      ("func", Json.String d.func);
      ("addr", Json.String (Printf.sprintf "0x%08x" d.addr));
      ("message", Json.String d.message) ]

let to_json r =
  Json.Obj
    [ ("errors", Json.Int (count Error r));
      ("warnings", Json.Int (count Warning r));
      ("infos", Json.Int (count Info r));
      ("image_score", Json.Float r.surface.image_score);
      ("diags", Json.List (List.map diag_to_json r.diags)) ]

let pp_diag ppf d =
  Fmt.pf ppf "%-7s %-18s %-14s 0x%08x  %s"
    (severity_name d.severity)
    d.rule d.func d.addr d.message

let pp ppf r =
  Fmt.pf ppf
    "@[<v>lint: %d error(s), %d warning(s), %d info(s); image \
     susceptibility %.1f%% (%d instruction(s), %d perturbations)"
    (count Error r) (count Warning r) (count Info r)
    (100. *. r.surface.image_score)
    (List.length r.surface.profiles)
    r.surface.total_flips;
  List.iter (fun d -> Fmt.pf ppf "@,%a" pp_diag d) r.diags;
  Fmt.pf ppf "@]"
