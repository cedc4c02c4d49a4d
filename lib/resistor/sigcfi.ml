(* FIPAC-flavoured running-signature CFI (post-paper; FIPAC,
   arXiv:2104.14993).

   Where CFCSS assigns every block a static signature and checks set
   membership at merge points, this pass threads one keyed *running*
   accumulator through the control-flow graph:

   - every basic block [b] owns a keyed signature [sig b], a GF(2^8)
     polynomial MAC of (function, label) evaluated at the key — the
     repo's stand-in for FIPAC's PAC-keyed state;
   - every CFG edge [p -> s] is split and carries an update
     [S := step(S) xor patch(p, s)] where [step] is multiplication by
     the field generator and [patch(p, s) = step(sig p) xor sig s] is a
     compile-time constant.  Arriving over a legal edge turns [sig p]
     into exactly [sig s]; arriving from anywhere else leaves garbage
     that no later patch can justify;
   - sinks (returns) load the accumulator and compare it against the
     current block's signature, calling the {!Detect} handler on
     mismatch.  Function entries re-seed, and the accumulator is
     re-seeded after every internal call (the callee ran its own
     chain), keeping the scheme per-activation like CFCSS.

   An 8-bit state means an illegal edge still passes a sink check with
   probability ~1/256 — the honest FIPAC trade-off — and, exactly like
   CFCSS, a glitch that only flips a *legal* branch direction updates
   the state along a legal edge and stays invisible (the Table VII
   limitation). *)

type report = {
  blocks_signed : int;
  updates_inserted : int;  (** edge-split state-update blocks *)
  checks_inserted : int;  (** sink (return) checks *)
  key : int;
}

let state_global = "__sigcfi_S"
let default_key = 0x5A

(* GF(2^8) multiply-by-alpha, poly 0x11D — branchless, so the runtime
   IR sequence below computes the same function the compile-time patch
   constants are derived with. *)
let step x = ((x lsl 1) land 0xFF) lxor (0x1D * ((x lsr 7) land 1))

(* Keyed per-(function, block) signature: the MAC
   [sum byte_i * key^(n-i)] over the bytes of "fname.label", i.e. a
   GF(2^8) polynomial evaluated at the key. *)
let signature ~key fname label =
  let s = fname ^ "." ^ label in
  let acc = ref 0 in
  String.iter
    (fun c -> acc := Reedsolomon.Gf256.add (Reedsolomon.Gf256.mul !acc key) (Char.code c))
    s;
  !acc

let step_fn = "__gr_sigcfi_step"

(* Out-of-line state update [S := step(S) xor patch] so each edge-split
   glue block is a single call with a compile-time argument: IR temps
   are single-assignment and map 1:1 to stack slots in codegen, so
   inlining the 8-temp update on every CFG edge would blow the 255-slot
   frame budget on large defended images. *)
let build_step_fn () =
  let b = Ir.Builder.create ~fname:step_fn ~params:[ "p" ] ~returns_value:false in
  let s = Ir.Builder.load ~volatile:true b (Ir.Global state_global) in
  let shl = Ir.Builder.binop b Ir.Shl s (Ir.Const 1) in
  let low = Ir.Builder.binop b Ir.And shl (Ir.Const 0xFF) in
  let hi = Ir.Builder.binop b Ir.Lshr s (Ir.Const 7) in
  let hibit = Ir.Builder.binop b Ir.And hi (Ir.Const 1) in
  let red = Ir.Builder.binop b Ir.Mul hibit (Ir.Const 0x1D) in
  let stepped = Ir.Builder.binop b Ir.Xor low red in
  let p = Ir.Builder.load b (Ir.Local "p") in
  let next = Ir.Builder.binop b Ir.Xor stepped p in
  Ir.Builder.store ~volatile:true b (Ir.Global state_global) next;
  Ir.Builder.ret b None;
  Ir.Builder.func b

let seed_instr s =
  Ir.Store { dst = Ir.Global state_global; src = Ir.Const s; volatile = true }

let instrument_function ~key (m : Ir.modul) (f : Ir.func) =
  let fresh = Pass.fresh_for f in
  let sig_of =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (b : Ir.block) ->
        Hashtbl.replace table b.label (signature ~key f.fname b.label))
      f.blocks;
    fun label -> Hashtbl.find table label
  in
  let original = List.map (fun (b : Ir.block) -> b.label) f.blocks in
  let updates = ref 0 and checks = ref 0 in
  (* New blocks are spliced in right after the block they serve, not
     appended at the end of the function: with one glue block per CFG
     edge, an appended tail puts every body→glue→body hop ~the whole
     function apart and drowns codegen's branch relaxation in
     trampoline stubs. *)
  let added = Hashtbl.create 16 in
  (* 1. split every edge between original blocks and put the keyed
     state update on it *)
  let glue src src_sig target =
    incr updates;
    let label = Pass.label fresh "sigcfi.up" in
    let patch = step src_sig lxor sig_of target in
    Pass.attach added ~after:src
      [ { Ir.label;
          instrs =
            [ Ir.Call { dst = None; callee = step_fn; args = [ Ir.Const patch ] } ];
          term = Ir.Br target } ];
    label
  in
  List.iter
    (fun (b : Ir.block) ->
      let own = sig_of b.label in
      let glue = glue b.label own in
      b.term <-
        (match b.term with
        | Ir.Br l -> Ir.Br (glue l)
        | Ir.Cond_br { cond; if_true; if_false } ->
          Ir.Cond_br { cond; if_true = glue if_true; if_false = glue if_false }
        | Ir.Switch { value; cases; default } ->
          Ir.Switch
            { value;
              cases = List.map (fun (v, l) -> (v, glue l)) cases;
              default = glue default }
        | (Ir.Ret _ | Ir.Unreachable) as t -> t))
    (List.filter (fun (b : Ir.block) -> List.mem b.Ir.label original) f.blocks);
  (* 2. seed on entry, re-seed after internal calls (the callee ran its
     own signature chain to its own sink) *)
  (match f.blocks with
  | entry :: _ -> entry.instrs <- seed_instr (sig_of entry.label) :: entry.instrs
  | [] -> ());
  List.iter
    (fun (b : Ir.block) ->
      if List.mem b.Ir.label original then
        b.instrs <-
          List.concat_map
            (fun i ->
              match i with
              | Ir.Call { callee; _ }
                when Ir.find_func m callee <> None
                     && not (Pass.is_runtime_helper callee) ->
                (* the callee ran its own chain and clobbered S; helpers
                   never touch the chain, and re-seeding after them
                   would mask an already-corrupt state *)
                [ i; seed_instr (sig_of b.label) ]
              | _ -> [ i ])
            b.instrs)
    f.blocks;
  (* 3. sink checks: every return is dominated by a signature check *)
  List.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Ir.Ret _ when List.mem b.Ir.label original ->
        incr checks;
        Pass.attach added ~after:b.label
          (Detect.check_ret fresh ~hint:"sigcfi" state_global
             (sig_of b.label) b)
      | _ -> ())
    f.blocks;
  f.blocks <- Pass.splice added f.blocks;
  (List.length original, !updates, !checks)

let run reaction (m : Ir.modul) =
  let key = default_key in
  Detect.ensure reaction m;
  Pass.ensure_global m state_global ~init:0 ~volatile:true;
  Pass.ensure_func m step_fn build_step_fn;
  let signed = ref 0 and updates = ref 0 and checks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if not (Pass.is_runtime_helper f.fname) then begin
        let s, u, c = instrument_function ~key m f in
        signed := !signed + s;
        updates := !updates + u;
        checks := !checks + c
      end)
    m.funcs;
  Pass.verify_or_fail "sigcfi" m;
  { blocks_signed = !signed; updates_inserted = !updates;
    checks_inserted = !checks; key }
