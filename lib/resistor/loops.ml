type report = { loops_instrumented : int }

(* A loop guard is a conditional block inside a cycle with an edge that
   leaves it. Two detectors are combined:

   - back-edge targets ending in [Cond_br] — the classic while/for
     header, also caught for inner loops nested inside a larger SCC;
   - conditional blocks inside a non-trivial SCC (or self-loop) with a
     successor outside it — which additionally catches do-while exits,
     where the back edge targets the *body*, so the conditional block
     is never itself a back-edge target.

   The second definition mirrors the lint auditor's notion of a
   loop-exit guard; randomized differential testing caught the original
   header-only detector silently skipping every do-while loop. *)
let guard_edges (f : Ir.func) =
  let { Ir.index; succs; comp; in_cycle; _ } = Ir.sccs f in
  (* back-edge targets, by block order (the pre-fix detector) *)
  let header = Array.make (Array.length succs) false in
  Array.iteri
    (fun i -> List.iter (fun t -> if t <= i then header.(t) <- true))
    succs;
  let leaves v label =
    match Hashtbl.find_opt index label with
    | Some w -> comp.(w) <> comp.(v)
    | None -> false
  in
  List.concat
    (List.mapi
       (fun v (b : Ir.block) ->
         match b.term with
         | Ir.Cond_br { if_true; if_false; _ } ->
           if header.(v) then
             (* while/for header: the false edge is the loop exit *)
             [ (b, `False) ]
           else if in_cycle.(v) && leaves v if_false then [ (b, `False) ]
           else if in_cycle.(v) && leaves v if_true then [ (b, `True) ]
           else []
         | _ -> [])
       f.blocks)

let run reaction (m : Ir.modul) =
  Detect.ensure reaction m;
  let count = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if f.fname <> Detect.detected_fn then begin
        let fresh = Pass.fresh_for f in
        let defs = Pass.def_map f in
        let shadows = Hashtbl.create 8 in
        let additions =
          List.concat_map
            (fun (block, edge) ->
              incr count;
              Branches.instrument_edge f fresh defs ~shadows ~block ~edge)
            (guard_edges f)
        in
        f.blocks <- f.blocks @ additions
      end)
    m.funcs;
  Pass.verify_or_fail "loops" m;
  { loops_instrumented = !count }
