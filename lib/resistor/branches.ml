type report = { branches_instrumented : int }

let mask32 = 0xFFFFFFFF

(* Complementing both operands reverses order: x < y iff ~x > ~y (two's
   complement: ~x = -x - 1), while (in)equality is preserved. *)
let complemented_op (op : Ir.icmp) : Ir.icmp =
  match op with
  | Ir.Eq -> Ir.Eq
  | Ir.Ne -> Ir.Ne
  | Ir.Slt -> Ir.Sgt
  | Ir.Sle -> Ir.Sge
  | Ir.Sgt -> Ir.Slt
  | Ir.Sge -> Ir.Sle
  | Ir.Ult -> Ir.Ugt
  | Ir.Ule -> Ir.Uge
  | Ir.Ugt -> Ir.Ult
  | Ir.Uge -> Ir.Ule

let instrument_edge (f : Ir.func) fresh defs ~shadows ~(block : Ir.block) ~edge
    =
  match block.term with
  | Ir.Br _ | Ir.Switch _ | Ir.Ret _ | Ir.Unreachable -> []
  | Ir.Cond_br { cond; if_true; if_false } ->
    (* The condition this edge asserts: [op lhs rhs] that must hold when
       execution goes this way. Raw (non-icmp) conditions are treated as
       [cond != 0]. *)
    let base_op, lhs, rhs =
      match cond with
      | Ir.Temp t -> (
        match Hashtbl.find_opt defs t with
        | Some (Ir.Icmp { op; lhs; rhs; _ }) -> (op, lhs, rhs)
        | Some (Ir.Load _ | Ir.Binop _ | Ir.Call _ | Ir.Store _) | None ->
          (Ir.Ne, cond, Ir.Const 0))
      | Ir.Const _ -> (Ir.Ne, cond, Ir.Const 0)
    in
    let edge_op =
      match edge with `True -> base_op | `False -> Ir.negate_icmp base_op
    in
    let target = match edge with `True -> if_true | `False -> if_false in
    (* replicate the operand computations *)
    let lhs_clone = Pass.clone_chain fresh defs lhs in
    let rhs_clone = Pass.clone_chain fresh defs rhs in
    let check_label = Pass.label fresh "branch.check" in
    let bad_label = Pass.label fresh "branch.bad" in
    let complement v =
      let dst = Pass.temp fresh in
      (Ir.Binop { dst; op = Ir.Xor; lhs = v; rhs = Ir.Const mask32 }, Ir.Temp dst)
    in
    let c_lhs_i, c_lhs = complement lhs_clone.value in
    let c_rhs_i, c_rhs = complement rhs_clone.value in
    let verdict = Pass.temp fresh in
    let verdict_icmp =
      if Mutant.is Branches_complement then
        Ir.Icmp { dst = verdict; op = Ir.Eq; lhs = c_lhs; rhs = c_lhs }
      else
        Ir.Icmp
          { dst = verdict; op = complemented_op edge_op; lhs = c_lhs;
            rhs = c_rhs }
    in
    (* Operands the cloner reused verbatim live in a single stack slot
       at -O0, and a corrupted guard word can decode into a store that
       overwrites exactly that slot — skipping the primary test and
       feeding the re-check the attacker's value in one fault. Pair
       each reused temp with a complemented shadow captured at its
       definition and fold [t lxor shadow = ~0] into the verdict: a
       one-word fault can clobber one slot of the pair, never both. *)
    let reused =
      List.filter
        (fun t -> not (List.mem t lhs_clone.Pass.reused))
        rhs_clone.Pass.reused
      |> ( @ ) lhs_clone.Pass.reused
    in
    let pair_instrs, pair_cond =
      if Mutant.is Branches_complement then ([], Ir.Temp verdict)
      else
        List.fold_left
          (fun (instrs, cond) t ->
            match Pass.shadow_for f fresh defs shadows t with
            | None -> (instrs, cond)
            | Some sh ->
              let x = Pass.temp fresh in
              let ok = Pass.temp fresh in
              let combined = Pass.temp fresh in
              ( instrs
                @ [ Ir.Binop
                      { dst = x; op = Ir.Xor; lhs = Ir.Temp t;
                        rhs = Ir.Temp sh };
                    Ir.Icmp
                      { dst = ok; op = Ir.Eq; lhs = Ir.Temp x;
                        rhs = Ir.Const mask32 };
                    Ir.Binop
                      { dst = combined; op = Ir.And; lhs = cond;
                        rhs = Ir.Temp ok } ],
                Ir.Temp combined ))
          ([], Ir.Temp verdict) reused
    in
    let check_block =
      { Ir.label = check_label;
        instrs =
          lhs_clone.instrs @ rhs_clone.instrs
          @ [ c_lhs_i; c_rhs_i; verdict_icmp ]
          @ pair_instrs;
        term =
          Ir.Cond_br { cond = pair_cond; if_true = target; if_false = bad_label }
      }
    in
    let bad_block =
      { Ir.label = bad_label;
        instrs = [ Ir.Call { dst = None; callee = Detect.detected_fn; args = [] } ];
        term = Ir.Br target }
    in
    (* redirect the instrumented edge through the check *)
    block.term <-
      (match edge with
      | `True -> Ir.Cond_br { cond; if_true = check_label; if_false }
      | `False -> Ir.Cond_br { cond; if_true; if_false = check_label });
    ignore f;
    [ check_block; bad_block ]

let run reaction (m : Ir.modul) =
  Detect.ensure reaction m;
  let count = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if f.fname <> Detect.detected_fn then begin
        let fresh = Pass.fresh_for f in
        let defs = Pass.def_map f in
        let shadows = Hashtbl.create 8 in
        let original = f.blocks in
        let additions =
          List.concat_map
            (fun block ->
              match block.Ir.term with
              | Ir.Cond_br _ ->
                incr count;
                instrument_edge f fresh defs ~shadows ~block ~edge:`True
              | Ir.Br _ | Ir.Switch _ | Ir.Ret _ | Ir.Unreachable -> [])
            original
        in
        f.blocks <- f.blocks @ additions
      end)
    m.funcs;
  Pass.verify_or_fail "branches" m;
  { branches_instrumented = !count }
