type report = { sites : int }

let seed_global = "__gr_seed"
let delay_fn = "__gr_delay"
let init_fn = "__gr_init"

(* glibc's LCG parameters. *)
let lcg_mul = 1103515245
let lcg_inc = 12345

let build_delay_fn () =
  let b = Ir.Builder.create ~fname:delay_fn ~params:[] ~returns_value:false in
  Ir.Builder.add_local b "n";
  let s = Ir.Builder.load ~volatile:true b (Ir.Global seed_global) in
  let m = Ir.Builder.binop b Ir.Mul s (Ir.Const lcg_mul) in
  let s' = Ir.Builder.binop b Ir.Add m (Ir.Const lcg_inc) in
  Ir.Builder.store ~volatile:true b (Ir.Global seed_global) s';
  let sh = Ir.Builder.binop b Ir.Lshr s' (Ir.Const 16) in
  (* 0-7 busy iterations; a mask keeps the generator division-free on a
     core with no hardware divide *)
  let n0 = Ir.Builder.binop b Ir.And sh (Ir.Const 7) in
  Ir.Builder.store b (Ir.Local "n") n0;
  Ir.Builder.br b "head";
  let _head = Ir.Builder.new_block b "head" in
  let nv = Ir.Builder.load b (Ir.Local "n") in
  let c = Ir.Builder.icmp b Ir.Ne nv (Ir.Const 0) in
  Ir.Builder.cond_br b c ~if_true:"body" ~if_false:"exit";
  let _body = Ir.Builder.new_block b "body" in
  let nv2 = Ir.Builder.load b (Ir.Local "n") in
  let d = Ir.Builder.binop b Ir.Sub nv2 (Ir.Const 1) in
  Ir.Builder.store b (Ir.Local "n") d;
  Ir.Builder.br b "head";
  let _exit = Ir.Builder.new_block b "exit" in
  Ir.Builder.ret b None;
  Ir.Builder.func b

let build_init_fn () =
  let b = Ir.Builder.create ~fname:init_fn ~params:[] ~returns_value:false in
  let s = Ir.Builder.load ~volatile:true b (Ir.Global seed_global) in
  let s' = Ir.Builder.binop b Ir.Add s (Ir.Const 1) in
  Ir.Builder.store ~volatile:true b (Ir.Global seed_global) s';
  ignore (Ir.Builder.call b "__flash_commit" []);
  Ir.Builder.ret b None;
  Ir.Builder.func b

let in_scope scope fname =
  match (scope : Config.delay_scope) with
  | Config.Delay_everywhere -> true
  | Config.Delay_opt_in names -> List.mem fname names
  | Config.Delay_opt_out names -> not (List.mem fname names)

let run ~scope (m : Ir.modul) =
  Pass.ensure_global m seed_global ~init:0x20210524 ~volatile:true;
  Pass.ensure_extern m "__flash_commit";
  Pass.ensure_func m delay_fn build_delay_fn;
  Pass.ensure_func m init_fn build_init_fn;
  let runtime = [ delay_fn; init_fn; Detect.detected_fn ] in
  let sites = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      if (not (List.mem f.fname runtime)) && in_scope scope f.fname then
        List.iter
          (fun (b : Ir.block) ->
            match b.term with
            | Ir.Br _ | Ir.Cond_br _ | Ir.Switch _ ->
              (* the paper: every block ending in a BranchInst or
                 SwitchInst gets a delay *)
              incr sites;
              b.instrs <-
                b.instrs @ [ Ir.Call { dst = None; callee = delay_fn; args = [] } ]
            | Ir.Ret _ | Ir.Unreachable -> ())
          f.blocks)
    m.funcs;
  (* seed refresh before anything else at boot *)
  (match Ir.find_func m "main" with
  | Some main -> (
    match main.blocks with
    | entry :: _ ->
      entry.instrs <-
        Ir.Call { dst = None; callee = init_fn; args = [] } :: entry.instrs
    | [] -> ())
  | None -> ());
  Pass.verify_or_fail "delay" m;
  { sites = !sites }
