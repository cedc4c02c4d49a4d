type violation = { func : string; message : string }

let pp_violation ppf { func; message } = Fmt.pf ppf "%s: %s" func message

let func (m : Types.modul) (f : Types.func) =
  let bad = ref [] in
  let report fmt =
    Fmt.kstr (fun message -> bad := { func = f.fname; message } :: !bad) fmt
  in
  (* unique labels *)
  let labels = List.map (fun (b : Types.block) -> b.label) f.blocks in
  List.iteri
    (fun i l ->
      if List.exists (fun l' -> l' = l) (List.filteri (fun j _ -> j < i) labels)
      then report "duplicate label %s" l)
    labels;
  if f.blocks = [] then report "no blocks";
  (* defined names *)
  let known_var = function
    | Types.Local name ->
      if not (List.mem name f.locals) then report "undeclared local %s" name
    | Types.Global name ->
      if Types.find_global m name = None then report "undeclared global %s" name
  in
  let callees =
    List.map (fun (g : Types.func) -> g.fname) m.funcs @ m.externs
  in
  (* single-assignment temps, defined before use in block order *)
  let defined = Hashtbl.create 64 in
  let define t =
    if Hashtbl.mem defined t then report "temp t%d assigned twice" t
    else Hashtbl.add defined t ()
  in
  let use = function
    | Types.Const _ -> ()
    | Types.Temp t -> if not (Hashtbl.mem defined t) then report "t%d used before definition" t
  in
  List.iter
    (fun (b : Types.block) ->
      List.iter
        (fun i ->
          match i with
          | Types.Load { dst; src; _ } ->
            known_var src;
            define dst
          | Types.Store { dst; src; _ } ->
            known_var dst;
            use src
          | Types.Binop { dst; lhs; rhs; _ } | Types.Icmp { dst; lhs; rhs; _ } ->
            use lhs;
            use rhs;
            define dst
          | Types.Call { dst; callee; args } ->
            List.iter use args;
            if not (List.mem callee callees) then
              report "call to unknown function %s" callee;
            Option.iter define dst)
        b.instrs;
      match b.term with
      | Types.Br l ->
        if not (List.mem l labels) then report "branch to unknown label %s" l
      | Types.Cond_br { cond; if_true; if_false } ->
        use cond;
        List.iter
          (fun l ->
            if not (List.mem l labels) then report "branch to unknown label %s" l)
          [ if_true; if_false ]
      | Types.Switch { value; cases; default } ->
        use value;
        List.iter
          (fun l ->
            if not (List.mem l labels) then report "branch to unknown label %s" l)
          (default :: List.map snd cases);
        let case_values = List.map fst cases in
        if List.length (List.sort_uniq compare case_values) <> List.length case_values
        then report "duplicate switch case values"
      | Types.Ret (Some v) ->
        use v;
        if not f.returns_value then report "ret value in void function"
      | Types.Ret None ->
        if f.returns_value then report "ret void in value-returning function"
      | Types.Unreachable -> ())
    f.blocks;
  List.rev !bad

let modul (m : Types.modul) =
  let dup_globals =
    List.filteri
      (fun i (g : Types.global) ->
        List.exists
          (fun (g' : Types.global) -> g'.gname = g.gname)
          (List.filteri (fun j _ -> j < i) m.globals))
      m.globals
  in
  let global_violations =
    List.map
      (fun (g : Types.global) ->
        { func = "<module>"; message = "duplicate global " ^ g.gname })
      dup_globals
  in
  global_violations @ List.concat_map (func m) m.funcs

(* ------------------------------------------------------------------ *)
(* Non-fatal lint: path-sensitive checks that a pass may legitimately
   leave behind (e.g. dead blocks after edge redirection) but that a
   human should see.  Kept separate from [func]/[modul] so check_exn
   stays a hard wall while these surface as warnings. *)

module Int_set = Set.Make (Int)
module String_set = Set.Make (String)

let block_defs (b : Types.block) =
  List.fold_left
    (fun acc i ->
      match i with
      | Types.Load { dst; _ } | Types.Binop { dst; _ } | Types.Icmp { dst; _ }
      | Types.Call { dst = Some dst; _ } -> Int_set.add dst acc
      | Types.Store _ | Types.Call { dst = None; _ } -> acc)
    Int_set.empty b.instrs

let lint_func (f : Types.func) =
  let bad = ref [] in
  let report fmt =
    Fmt.kstr (fun message -> bad := { func = f.fname; message } :: !bad) fmt
  in
  match f.blocks with
  | [] -> []
  | entry :: _ ->
    let find l =
      List.find_opt (fun (b : Types.block) -> b.label = l) f.blocks
    in
    (* Reachability: BFS over terminator successors from the entry. *)
    let reachable = ref (String_set.singleton entry.label) in
    let queue = Queue.create () in
    Queue.add entry queue;
    while not (Queue.is_empty queue) do
      let b = Queue.pop queue in
      List.iter
        (fun l ->
          if not (String_set.mem l !reachable) then begin
            reachable := String_set.add l !reachable;
            Option.iter (fun b' -> Queue.add b' queue) (find l)
          end)
        (Types.successors b.term)
    done;
    List.iter
      (fun (b : Types.block) ->
        if not (String_set.mem b.label !reachable) then
          report "block %s is unreachable from entry" b.label)
      f.blocks;
    (* Maybe-undefined temps: forward must-define dataflow over the
       reachable subgraph.  IN[b] = intersection of OUT[preds]; a use
       not covered by IN plus the defs so far in the block may read an
       undefined temp on some path. *)
    let reachable_blocks =
      List.filter
        (fun (b : Types.block) -> String_set.mem b.label !reachable)
        f.blocks
    in
    let all_defs =
      List.fold_left
        (fun acc b -> Int_set.union acc (block_defs b))
        Int_set.empty reachable_blocks
    in
    let preds = Types.predecessors f in
    let out = Hashtbl.create 16 in
    List.iter
      (fun (b : Types.block) ->
        Hashtbl.replace out b.label
          (if b.label = entry.label then block_defs b else all_defs))
      reachable_blocks;
    let in_set (b : Types.block) =
      if b.label = entry.label then Int_set.empty
      else
        match preds b.label with
        | [] -> Int_set.empty
        | ps ->
          (* unreachable predecessors have no OUT and are skipped *)
          List.fold_left
            (fun acc p ->
              match Hashtbl.find_opt out p with
              | Some s -> Int_set.inter acc s
              | None -> acc)
            all_defs ps
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Types.block) ->
          let next = Int_set.union (in_set b) (block_defs b) in
          if not (Int_set.equal next (Hashtbl.find out b.label)) then begin
            Hashtbl.replace out b.label next;
            changed := true
          end)
        reachable_blocks
    done;
    let flagged = ref Int_set.empty in
    List.iter
      (fun (b : Types.block) ->
        let avail = ref (in_set b) in
        let use where = function
          | Types.Const _ -> ()
          | Types.Temp t ->
            if (not (Int_set.mem t !avail)) && not (Int_set.mem t !flagged)
            then begin
              flagged := Int_set.add t !flagged;
              report "t%d may be used before definition (%s, block %s)" t
                where b.label
            end
        in
        List.iter
          (fun i ->
            (match i with
            | Types.Load _ -> ()
            | Types.Store { src; _ } -> use "store" src
            | Types.Binop { lhs; rhs; _ } | Types.Icmp { lhs; rhs; _ } ->
              use "operand" lhs;
              use "operand" rhs
            | Types.Call { args; _ } -> List.iter (use "argument") args);
            match i with
            | Types.Load { dst; _ } | Types.Binop { dst; _ }
            | Types.Icmp { dst; _ } | Types.Call { dst = Some dst; _ } ->
              avail := Int_set.add dst !avail
            | Types.Store _ | Types.Call { dst = None; _ } -> ())
          b.instrs;
        match b.term with
        | Types.Cond_br { cond; _ } -> use "branch condition" cond
        | Types.Switch { value; _ } -> use "switch value" value
        | Types.Ret (Some v) -> use "return value" v
        | Types.Br _ | Types.Ret None | Types.Unreachable -> ())
      reachable_blocks;
    List.rev !bad

let lint (m : Types.modul) = List.concat_map lint_func m.funcs

let check_exn m =
  match modul m with
  | [] -> ()
  | violations ->
    invalid_arg
      (Fmt.str "IR verification failed:@ %a"
         Fmt.(list ~sep:cut pp_violation)
         violations)
