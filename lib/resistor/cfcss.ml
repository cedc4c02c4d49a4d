type report = { blocks_signed : int; checks_inserted : int }

let signature_global = "__cfcss_G"

(* Distinct per-(function, block) signatures; the constant prefix keeps
   them out of the way of ordinary program values. *)
let signatures (m : Ir.modul) =
  let table = Hashtbl.create 64 in
  let next = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          incr next;
          Hashtbl.replace table (f.fname, b.label) (0x51B00000 lor !next))
        f.blocks)
    m.funcs;
  table

let instrument_function sigs (f : Ir.func) =
  let fresh = Pass.fresh_for f in
  let preds = Ir.predecessors f in
  let sig_of label = Hashtbl.find sigs (f.fname, label) in
  let checks = ref 0 in
  let out = ref [] in
  let emit blk = out := blk :: !out in
  let entry_label = match f.blocks with b :: _ -> b.label | [] -> "" in
  List.iter
    (fun (b : Ir.block) ->
      let own_sig = sig_of b.label in
      (* The signed body: assert our signature, and re-assert it after
         every call (the callee signed its own blocks into G). *)
      let set_g =
        Ir.Store
          { dst = Ir.Global signature_global; src = Ir.Const own_sig;
            volatile = true }
      in
      let body_instrs =
        set_g
        :: List.concat_map
             (fun i ->
               match i with
               | Ir.Call _ -> [ i; set_g ]
               | Ir.Load _ | Ir.Store _ | Ir.Binop _ | Ir.Icmp _ -> [ i ])
             b.instrs
      in
      let pred_labels = List.sort_uniq compare (preds b.label) in
      if b.label = entry_label || pred_labels = [] then
        emit { Ir.label = b.label; instrs = body_instrs; term = b.term }
      else begin
        incr checks;
        let body_label = Pass.label fresh "cfcss.body" in
        let bad_label = Pass.label fresh "cfcss.bad" in
        (* check chain under the original label: G must match one legal
           predecessor's signature, else the detector fires *)
        let g_temp = Pass.temp fresh in
        let load_g =
          Ir.Load { dst = g_temp; src = Ir.Global signature_global; volatile = true }
        in
        let rec chain label first = function
          | [] -> assert false
          | pred :: rest ->
            let v = Pass.temp fresh in
            let fail_to =
              if rest = [] then bad_label else Pass.label fresh "cfcss.chk"
            in
            emit
              { Ir.label;
                instrs =
                  (if first then [ load_g ] else [])
                  @ [ Ir.Icmp
                        { dst = v; op = Ir.Eq; lhs = Ir.Temp g_temp;
                          rhs = Ir.Const (sig_of pred) } ];
                term =
                  Ir.Cond_br
                    { cond = Ir.Temp v; if_true = body_label; if_false = fail_to } };
            if rest <> [] then chain fail_to false rest
        in
        chain b.label true pred_labels;
        emit (Detect.arm bad_label ~next:body_label);
        emit { Ir.label = body_label; instrs = body_instrs; term = b.term }
      end)
    f.blocks;
  f.blocks <- List.rev !out;
  !checks

let run reaction (m : Ir.modul) =
  Detect.ensure reaction m;
  Pass.ensure_global m signature_global ~init:0 ~volatile:true;
  let sigs = signatures m in
  let blocks = Hashtbl.length sigs in
  let checks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if f.fname <> Detect.detected_fn then
        checks := !checks + instrument_function sigs f)
    m.funcs;
  Pass.verify_or_fail "cfcss" m;
  { blocks_signed = blocks; checks_inserted = !checks }
