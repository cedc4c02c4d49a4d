type report = {
  protected : (string * string) list;
  checks_inserted : int;
}

let shadow_name g = g ^ "__integrity"

let mask32 = 0xFFFFFFFF

(* Rebuild a function so that every access to a protected global is
   paired with its shadow: stores write the complement too; loads
   verify and branch to the detector on mismatch. Verification needs
   control flow, so blocks are split at each protected load. *)
let instrument_function protected (f : Ir.func) =
  let fresh = Pass.fresh_for f in
  let checks = ref 0 in
  let new_blocks = ref [] in
  let emit_block b = new_blocks := b :: !new_blocks in
  List.iter
    (fun (b : Ir.block) ->
      (* current accumulating block *)
      let label = ref b.label in
      let acc = ref [] in
      let flush_with_check ~cont_label ~check_cond =
        (* end the current block with a conditional jump to a detector
           stub, then continue in a fresh block *)
        let detect_label = Pass.label fresh "integrity.bad" in
        emit_block
          { Ir.label = !label;
            instrs = List.rev !acc;
            term =
              Ir.Cond_br
                { cond = check_cond; if_true = detect_label; if_false = cont_label } };
        emit_block (Detect.arm detect_label ~next:cont_label);
        label := cont_label;
        acc := []
      in
      let rec go (instrs : Ir.instr list) =
        match instrs with
        | [] -> ()
        | Ir.Store { dst = Ir.Global g; src; volatile } :: rest
          when List.mem g protected ->
          acc := Ir.Store { dst = Ir.Global g; src; volatile } :: !acc;
          let inv = Pass.temp fresh in
          acc := Ir.Binop { dst = inv; op = Ir.Xor; lhs = src; rhs = Ir.Const mask32 } :: !acc;
          acc :=
            Ir.Store
              { dst = Ir.Global (shadow_name g); src = Ir.Temp inv; volatile }
            :: !acc;
          go rest
        | Ir.Load { dst; src = Ir.Global g; volatile } :: rest
          when List.mem g protected ->
          incr checks;
          acc := Ir.Load { dst; src = Ir.Global g; volatile } :: !acc;
          (* Complement shadows an earlier pass captured for this load
             ([Pass.shadow_for] emits [xor dst, -1] immediately after
             the definition) must stay glued to it: letting the
             integrity check run in between would open a window where a
             corrupted check word can decode into a frame store that
             overwrites the loaded value {e before} its shadow is
             taken, forging both coherently. *)
          let rec take_shadows rest =
            match rest with
            | (Ir.Binop { op = Ir.Xor; lhs = Ir.Temp t; rhs = Ir.Const c; _ }
               as s)
              :: tl
              when t = dst && c = mask32 ->
              acc := s :: !acc;
              take_shadows tl
            | _ -> rest
          in
          let rest = take_shadows rest in
          let sh = Pass.temp fresh in
          acc :=
            Ir.Load { dst = sh; src = Ir.Global (shadow_name g); volatile }
            :: !acc;
          let x = Pass.temp fresh in
          acc :=
            Ir.Binop { dst = x; op = Ir.Xor; lhs = Ir.Temp dst; rhs = Ir.Temp sh }
            :: !acc;
          let bad = Pass.temp fresh in
          acc :=
            Ir.Icmp { dst = bad; op = Ir.Ne; lhs = Ir.Temp x; rhs = Ir.Const mask32 }
            :: !acc;
          flush_with_check
            ~cont_label:(Pass.label fresh "integrity.ok")
            ~check_cond:(Ir.Temp bad);
          go rest
        | ((Ir.Load _ | Ir.Store _ | Ir.Binop _ | Ir.Icmp _ | Ir.Call _) as i)
          :: rest ->
          acc := i :: !acc;
          go rest
      in
      go b.instrs;
      emit_block { Ir.label = !label; instrs = List.rev !acc; term = b.term })
    f.blocks;
  f.blocks <- List.rev !new_blocks;
  !checks

let run ~sensitive reaction (m : Ir.modul) =
  Detect.ensure reaction m;
  let protected =
    List.filter (fun g -> Ir.find_global m g <> None) sensitive
  in
  (* allocate shadows in a disjoint region: appended after all existing
     globals, so original and shadow are never adjacent *)
  List.iter
    (fun g ->
      let orig = Option.get (Ir.find_global m g) in
      Pass.ensure_global m (shadow_name g) ~init:(orig.init lxor mask32)
        ~volatile:orig.volatile)
    protected;
  let checks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if f.fname <> Detect.detected_fn then
        checks := !checks + instrument_function protected f)
    m.funcs;
  Pass.verify_or_fail "integrity" m;
  { protected = List.map (fun g -> (g, shadow_name g)) protected;
    checks_inserted = !checks }
