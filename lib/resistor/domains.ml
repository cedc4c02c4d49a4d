(* SCRAMBLE-CFI-flavoured scramble domains (post-paper; SCRAMBLE-CFI,
   arXiv:2303.03711).

   SCRAMBLE-CFI encrypts each function cluster with its own key so
   control flow escaping its cluster decodes to garbage. The IR-level
   analog here: functions are partitioned into keyed clusters, and a
   volatile domain register ({!domain_global}) must hold the current
   cluster's key.

   - every function entry (and every return) checks the register
     against its own cluster key and calls the {!Detect} handler on
     mismatch;
   - a *cross-domain* call is bracketed with XOR bridges:
     [D := D xor (key_src xor key_dst)] immediately before the call
     (so the callee's entry check sees its own key — but only when the
     call really came from [key_src]) and again after it returns.

   A glitch that diverts control into another cluster skips the bridge,
   so the register still holds the old cluster's key and the very next
   check in the new cluster fires. Cluster keys are distinct nonzero
   GF(2^8) elements derived from the master key, so every bridge
   constant is nonzero — there is no identity bridge to land on. *)

type report = {
  domains : (string * int) list;  (** function -> cluster index *)
  clusters : int;
  bridges : int;  (** cross-domain call sites bracketed *)
  checks_inserted : int;  (** entry + return checks *)
  key : int;
}

let domain_global = "__domains_D"
let default_key = 0xC3

(* Distinct nonzero per-cluster keys: master * alpha^(d+1). *)
let cluster_key ~key d = Reedsolomon.Gf256.mul key (Reedsolomon.Gf256.exp (d + 1))

let bridge_fn = "__gr_domains_xor"

(* Runtime helpers ("__gr_" prefix) live outside the clusters: they are
   never partitioned, bridged or checked. *)
let is_runtime_helper fname =
  String.length fname >= 4 && String.sub fname 0 4 = "__gr"

(* Out-of-line [D := D xor b] so each bridge half is a single call with
   a compile-time constant instead of a 2-temp load/xor/store sequence
   (IR temps are single-assignment stack slots; frames are capped at
   255 slots in codegen). *)
let ensure_bridge_fn (m : Ir.modul) =
  if Ir.find_func m bridge_fn = None then begin
    let bld =
      Ir.Builder.create ~fname:bridge_fn ~params:[ "b" ] ~returns_value:false
    in
    let d = Ir.Builder.load ~volatile:true bld (Ir.Global domain_global) in
    let b = Ir.Builder.load bld (Ir.Local "b") in
    let next = Ir.Builder.binop bld Ir.Xor d b in
    Ir.Builder.store ~volatile:true bld (Ir.Global domain_global) next;
    Ir.Builder.ret bld None;
    m.funcs <- m.funcs @ [ Ir.Builder.func bld ]
  end

(* Deterministic keyed partition: [main] anchors cluster 0, everything
   else lands by a key-mixed name hash. Cluster count scales with the
   module so small firmware still exercises cross-domain edges. *)
let partition ~key (m : Ir.modul) =
  let named =
    List.filter (fun (f : Ir.func) -> not (is_runtime_helper f.fname)) m.funcs
  in
  let n = List.length named in
  let clusters = if n <= 1 then max n 1 else min 4 ((n + 1) / 2) in
  let hash name =
    let h = ref key in
    String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0xFFFFFF) name;
    !h
  in
  let assign (f : Ir.func) =
    if f.fname = "main" then (f.fname, 0)
    else (f.fname, hash f.fname mod clusters)
  in
  (List.map assign named, clusters)

let instrument_function ~key domains (f : Ir.func) =
  let own = List.assoc f.fname domains in
  let own_key = cluster_key ~key own in
  let fresh = Pass.fresh_for f in
  let bridges = ref 0 and checks = ref 0 in
  (* Split-off return blocks are spliced in right after the Ret block
     they serve (appending at the end stretches branch spans and costs
     codegen relaxation stubs on big functions). *)
  let added : (string, Ir.block list) Hashtbl.t = Hashtbl.create 4 in
  let original = List.map (fun (b : Ir.block) -> b.label) f.blocks in
  let splice blocks =
    List.concat_map
      (fun (b : Ir.block) ->
        b :: (match Hashtbl.find_opt added b.Ir.label with Some l -> l | None -> []))
      blocks
  in
  (* 1. XOR bridges around cross-domain calls *)
  List.iter
    (fun (b : Ir.block) ->
      b.instrs <-
        List.concat_map
          (fun i ->
            match i with
            | Ir.Call { callee; _ } -> (
              match List.assoc_opt callee domains with
              | Some target when target <> own ->
                incr bridges;
                let bridge = own_key lxor cluster_key ~key target in
                let hop =
                  Ir.Call
                    { dst = None; callee = bridge_fn; args = [ Ir.Const bridge ] }
                in
                [ hop; i; hop ]
              | Some _ | None -> [ i ])
            | _ -> [ i ])
          b.instrs)
    f.blocks;
  if not (Mutant.is Domains_checks) then begin
    (* 2. return checks, split off the Ret like a sink *)
    List.iter
      (fun (b : Ir.block) ->
        match b.term with
        | Ir.Ret _ when List.mem b.Ir.label original ->
          incr checks;
          let ret_label = Pass.label fresh "domains.ret" in
          let bad_label = Pass.label fresh "domains.bad" in
          let t = Pass.temp fresh and v = Pass.temp fresh in
          Hashtbl.replace added b.Ir.label
            [ { Ir.label = ret_label; instrs = []; term = b.term };
              { Ir.label = bad_label;
                instrs =
                  [ Ir.Call { dst = None; callee = Detect.detected_fn; args = [] } ];
                term = Ir.Br ret_label } ];
          b.instrs <-
            b.instrs
            @ [ Ir.Load { dst = t; src = Ir.Global domain_global; volatile = true };
                Ir.Icmp
                  { dst = v; op = Ir.Eq; lhs = Ir.Temp t; rhs = Ir.Const own_key } ];
          b.term <-
            Ir.Cond_br { cond = Ir.Temp v; if_true = ret_label; if_false = bad_label }
        | _ -> ())
      f.blocks;
    (* 3. entry check becomes the new first block *)
    match f.blocks with
    | [] -> ()
    | entry :: _ ->
      incr checks;
      let check_label = Pass.label fresh "domains.entry" in
      let bad_label = Pass.label fresh "domains.bad" in
      let t = Pass.temp fresh and v = Pass.temp fresh in
      let check =
        { Ir.label = check_label;
          instrs =
            [ Ir.Load { dst = t; src = Ir.Global domain_global; volatile = true };
              Ir.Icmp
                { dst = v; op = Ir.Eq; lhs = Ir.Temp t; rhs = Ir.Const own_key } ];
          term =
            Ir.Cond_br
              { cond = Ir.Temp v; if_true = entry.Ir.label; if_false = bad_label } }
      in
      let bad =
        { Ir.label = bad_label;
          instrs =
            [ Ir.Call { dst = None; callee = Detect.detected_fn; args = [] } ];
          term = Ir.Br entry.Ir.label }
      in
      f.blocks <- check :: bad :: splice f.blocks;
      Hashtbl.reset added
  end;
  f.blocks <- splice f.blocks;
  (!bridges, !checks)

let run ?(key = default_key) reaction (m : Ir.modul) =
  if key <= 0 || key > 0xFF then invalid_arg "Domains.run: key must be in 1..255";
  Detect.ensure reaction m;
  let domains, clusters = partition ~key m in
  let init =
    match List.assoc_opt "main" domains with
    | Some d -> cluster_key ~key d
    | None -> cluster_key ~key 0
  in
  (match Ir.find_global m domain_global with
  | Some _ -> ()
  | None ->
    m.globals <-
      m.globals
      @ [ { Ir.gname = domain_global; init; volatile = true; sensitive = false } ]);
  ensure_bridge_fn m;
  let bridges = ref 0 and checks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if not (is_runtime_helper f.fname) then begin
        let b, c = instrument_function ~key domains f in
        bridges := !bridges + b;
        checks := !checks + c
      end)
    m.funcs;
  Pass.verify_or_fail "domains" m;
  { domains; clusters; bridges = !bridges; checks_inserted = !checks; key }
