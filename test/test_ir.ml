(* Tests for the IR: builder ergonomics, verifier diagnostics, and
   interpreter semantics (including the 32-bit arithmetic the codegen
   must agree with). *)

let empty_modul () : Ir.modul = { globals = []; funcs = []; externs = [] }

(* Build: int add2(a, b) { return a + b + 2; } *)
let build_add2 () =
  let b = Ir.Builder.create ~fname:"add2" ~params:[ "a"; "b" ] ~returns_value:true in
  let va = Ir.Builder.load b (Ir.Local "a") in
  let vb = Ir.Builder.load b (Ir.Local "b") in
  let sum = Ir.Builder.binop b Ir.Add va vb in
  let sum2 = Ir.Builder.binop b Ir.Add sum (Ir.Const 2) in
  Ir.Builder.ret b (Some sum2);
  Ir.Builder.func b

(* Build: int countdown(n) { while (n != 0) n = n - 1; return n; }
   with n spilled through a local, exercising loops. *)
let build_countdown () =
  let b = Ir.Builder.create ~fname:"countdown" ~params:[ "n" ] ~returns_value:true in
  Ir.Builder.br b "head";
  let head = Ir.Builder.new_block b "head" in
  let n = Ir.Builder.load b (Ir.Local "n") in
  let cond = Ir.Builder.icmp b Ir.Ne n (Ir.Const 0) in
  Ir.Builder.cond_br b cond ~if_true:"body" ~if_false:"exit";
  let _body = Ir.Builder.new_block b "body" in
  let n2 = Ir.Builder.load b (Ir.Local "n") in
  let dec = Ir.Builder.binop b Ir.Sub n2 (Ir.Const 1) in
  Ir.Builder.store b (Ir.Local "n") dec;
  Ir.Builder.br b "head";
  let _exit = Ir.Builder.new_block b "exit" in
  let out = Ir.Builder.load b (Ir.Local "n") in
  Ir.Builder.ret b (Some out);
  ignore head;
  Ir.Builder.func b

let run_ok ?builtins m ~entry ~args =
  match Ir.Interp.run ?builtins m ~entry ~args with
  | Ok outcome -> outcome
  | Error e -> Alcotest.fail ("interp error: " ^ e)

let builder_and_interp () =
  let m = empty_modul () in
  m.funcs <- [ build_add2 () ];
  Ir.Verify.check_exn m;
  let out = run_ok m ~entry:"add2" ~args:[ 40; 0 ] in
  Alcotest.(check (option int)) "40+0+2" (Some 42) out.ret

let loop_semantics () =
  let m = empty_modul () in
  m.funcs <- [ build_countdown () ];
  Ir.Verify.check_exn m;
  let out = run_ok m ~entry:"countdown" ~args:[ 1000 ] in
  Alcotest.(check (option int)) "terminates at zero" (Some 0) out.ret

let globals_and_calls () =
  let m = empty_modul () in
  m.globals <-
    [ { Ir.gname = "counter"; init = 5; volatile = false; sensitive = false } ];
  let b = Ir.Builder.create ~fname:"bump" ~params:[] ~returns_value:true in
  let v = Ir.Builder.load b (Ir.Global "counter") in
  let v' = Ir.Builder.binop b Ir.Add v (Ir.Const 1) in
  Ir.Builder.store b (Ir.Global "counter") v';
  Ir.Builder.ret b (Some v');
  let bump = Ir.Builder.func b in
  let b2 = Ir.Builder.create ~fname:"main" ~params:[] ~returns_value:true in
  let r1 = Option.get (Ir.Builder.call b2 ~dst:true "bump" []) in
  let _r2 = Option.get (Ir.Builder.call b2 ~dst:true "bump" []) in
  ignore r1;
  let final = Ir.Builder.load b2 (Ir.Global "counter") in
  Ir.Builder.ret b2 (Some final);
  m.funcs <- [ bump; Ir.Builder.func b2 ];
  Ir.Verify.check_exn m;
  let out = run_ok m ~entry:"main" ~args:[] in
  Alcotest.(check (option int)) "two bumps" (Some 7) out.ret;
  Alcotest.(check (list (pair string int))) "global state" [ ("counter", 7) ]
    out.globals

let builtins_dispatch () =
  let m = empty_modul () in
  m.externs <- [ "magic" ];
  let b = Ir.Builder.create ~fname:"main" ~params:[] ~returns_value:true in
  let r = Option.get (Ir.Builder.call b ~dst:true "magic" [ Ir.Const 10 ]) in
  Ir.Builder.ret b (Some r);
  m.funcs <- [ Ir.Builder.func b ];
  Ir.Verify.check_exn m;
  let out =
    run_ok m ~entry:"main" ~args:[]
      ~builtins:[ ("magic", fun args -> List.hd args * 3) ]
  in
  Alcotest.(check (option int)) "builtin result" (Some 30) out.ret

let fuel_bounds_runaway () =
  let b = Ir.Builder.create ~fname:"spin" ~params:[] ~returns_value:false in
  Ir.Builder.br b "entry";
  let m = empty_modul () in
  m.funcs <- [ Ir.Builder.func b ];
  match Ir.Interp.run ~fuel:1000 m ~entry:"spin" ~args:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infinite loop must exhaust fuel"

let arithmetic_32bit () =
  let check_binop name op a b expected =
    Alcotest.(check int) name expected (Ir.eval_binop op a b)
  in
  check_binop "wraparound add" Ir.Add 0xFFFFFFFF 1 0;
  check_binop "signed div" Ir.Sdiv 0xFFFFFFFE 2 0xFFFFFFFF (* -2/2 = -1 *);
  check_binop "div by zero" Ir.Sdiv 5 0 0;
  check_binop "ashr sign" Ir.Ashr 0x80000000 31 0xFFFFFFFF;
  check_binop "lshr" Ir.Lshr 0x80000000 31 1;
  check_binop "shl masks amount" Ir.Shl 1 32 1;
  Alcotest.(check int) "signed lt" 1 (Ir.eval_icmp Ir.Slt 0xFFFFFFFF 0);
  Alcotest.(check int) "unsigned lt" 0 (Ir.eval_icmp Ir.Ult 0xFFFFFFFF 0)

let negate_icmp_involution () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "involution" true
        (Ir.negate_icmp (Ir.negate_icmp op) = op);
      (* negation complements the outcome on all inputs we try *)
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool) "complement" true
            (Ir.eval_icmp op a b <> Ir.eval_icmp (Ir.negate_icmp op) a b))
        [ (0, 0); (1, 0); (0, 1); (0xFFFFFFFF, 1); (5, 5) ])
    [ Ir.Eq; Ir.Ne; Ir.Slt; Ir.Sle; Ir.Sgt; Ir.Sge; Ir.Ult; Ir.Ule; Ir.Ugt; Ir.Uge ]

let switch_interp () =
  let b = Ir.Builder.create ~fname:"pick" ~params:[ "v" ] ~returns_value:true in
  let v = Ir.Builder.load b (Ir.Local "v") in
  Ir.Builder.switch b v
    ~cases:[ (1, "one"); (2, "two") ]
    ~default:"other";
  let _ = Ir.Builder.new_block b "one" in
  Ir.Builder.ret b (Some (Ir.Const 10));
  let _ = Ir.Builder.new_block b "two" in
  Ir.Builder.ret b (Some (Ir.Const 20));
  let _ = Ir.Builder.new_block b "other" in
  Ir.Builder.ret b (Some (Ir.Const 99));
  let m = empty_modul () in
  m.funcs <- [ Ir.Builder.func b ];
  Ir.Verify.check_exn m;
  List.iter
    (fun (arg, expected) ->
      let out = run_ok m ~entry:"pick" ~args:[ arg ] in
      Alcotest.(check (option int))
        (Printf.sprintf "pick %d" arg)
        (Some expected) out.ret)
    [ (1, 10); (2, 20); (3, 99); (0, 99) ]

let switch_verifier () =
  let bad_switch cases =
    let b = Ir.Builder.create ~fname:"f" ~params:[] ~returns_value:false in
    Ir.Builder.switch b (Ir.Const 0) ~cases ~default:"entry";
    let m = empty_modul () in
    m.funcs <- [ Ir.Builder.func b ];
    Ir.Verify.modul m
  in
  Alcotest.(check bool) "duplicate cases rejected" true
    (bad_switch [ (1, "entry"); (1, "entry") ] <> []);
  Alcotest.(check bool) "unknown target rejected" true
    (bad_switch [ (1, "ghost") ] <> []);
  Alcotest.(check bool) "well-formed accepted" true
    (bad_switch [ (1, "entry"); (2, "entry") ] = [])

let verifier_catches () =
  let expect_violation build =
    let m = empty_modul () in
    build m;
    match Ir.Verify.modul m with
    | [] -> Alcotest.fail "expected a verifier violation"
    | _ -> ()
  in
  (* branch to unknown label *)
  expect_violation (fun m ->
      let b = Ir.Builder.create ~fname:"f" ~params:[] ~returns_value:false in
      Ir.Builder.br b "nowhere";
      m.funcs <- [ Ir.Builder.func b ]);
  (* undeclared global *)
  expect_violation (fun m ->
      let b = Ir.Builder.create ~fname:"f" ~params:[] ~returns_value:false in
      let _ = Ir.Builder.load b (Ir.Global "ghost") in
      Ir.Builder.ret b None;
      m.funcs <- [ Ir.Builder.func b ]);
  (* call to unknown function *)
  expect_violation (fun m ->
      let b = Ir.Builder.create ~fname:"f" ~params:[] ~returns_value:false in
      let _ = Ir.Builder.call b "ghost" [] in
      Ir.Builder.ret b None;
      m.funcs <- [ Ir.Builder.func b ]);
  (* ret void from value-returning function *)
  expect_violation (fun m ->
      let b = Ir.Builder.create ~fname:"f" ~params:[] ~returns_value:true in
      Ir.Builder.ret b None;
      m.funcs <- [ Ir.Builder.func b ]);
  (* double assignment of a temp *)
  expect_violation (fun m ->
      let f : Ir.func =
        { fname = "f"; params = []; returns_value = false; locals = [ "x" ];
          blocks =
            [ { label = "entry";
                instrs =
                  [ Ir.Load { dst = 0; src = Ir.Local "x"; volatile = false };
                    Ir.Load { dst = 0; src = Ir.Local "x"; volatile = false } ];
                term = Ir.Ret None } ] }
      in
      m.funcs <- [ f ])

let verifier_accepts_good () =
  let m = empty_modul () in
  m.funcs <- [ build_add2 (); build_countdown () ];
  Alcotest.(check int) "no violations" 0 (List.length (Ir.Verify.modul m))

let max_temp_tracking () =
  let f = build_add2 () in
  Alcotest.(check int) "max temp" 3 (Ir.max_temp f)

(* --- Verify.lint: reachability and must-define dataflow ------------------- *)

let contains s ~affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let lint_clean () =
  Alcotest.(check int) "clean function" 0
    (List.length (Ir.Verify.lint_func (build_countdown ())))

let lint_unreachable_block () =
  let f = build_add2 () in
  f.blocks <-
    f.blocks
    @ [ { Ir.label = "orphan"; instrs = []; term = Ir.Ret (Some (Ir.Const 1)) } ];
  Ir.Verify.check_exn { globals = []; funcs = [ f ]; externs = [] };
  match Ir.Verify.lint_func f with
  | [ v ] ->
    Alcotest.(check string) "names the function" "add2" v.func;
    Alcotest.(check bool) "names the block" true
      (contains v.message ~affix:"orphan")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let lint_maybe_undefined () =
  (* t defined only on the then-path, used at the join *)
  let b = Ir.Builder.create ~fname:"half" ~params:[ "x" ] ~returns_value:true in
  let x = Ir.Builder.load b (Ir.Local "x") in
  let c = Ir.Builder.icmp b Ir.Ne x (Ir.Const 0) in
  Ir.Builder.cond_br b c ~if_true:"then" ~if_false:"join";
  let _ = Ir.Builder.new_block b "then" in
  let t = Ir.Builder.binop b Ir.Add x (Ir.Const 1) in
  Ir.Builder.br b "join";
  let _ = Ir.Builder.new_block b "join" in
  let s = Ir.Builder.binop b Ir.Add t (Ir.Const 0) in
  Ir.Builder.ret b (Some s);
  let f = Ir.Builder.func b in
  Alcotest.(check bool) "flags the maybe-undefined temp" true
    (List.exists
       (fun (v : Ir.Verify.violation) ->
         contains v.message ~affix:"before definition")
       (Ir.Verify.lint_func f));
  (* fully-defined variant is quiet: define t on both paths *)
  Alcotest.(check int) "countdown is clean" 0
    (List.length (Ir.Verify.lint_func (build_countdown ())))

let lint_surfaces_through_driver () =
  (* dead blocks produced by lowering surface as pass-tagged warnings in
     the driver reports *)
  let c =
    Resistor.Driver.compile
      (Resistor.Config.all ~sensitive:[ "a" ] ())
      Resistor.Firmware.guard_loop
  in
  Alcotest.(check bool) "driver collected lint warnings" true
    (List.exists
       (fun (pass, (v : Ir.Verify.violation)) ->
         pass <> "" && contains v.message ~affix:"unreachable")
       c.reports.verify_warnings)

(* --- graph helpers --------------------------------------------------------- *)

(* Random block graphs: self-loops, unreachable blocks, several edges to
   one target, and labels ("out") that name no block of the function. *)
let gen_cfg =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let target =
    map (fun i -> if i < n then Printf.sprintf "b%d" i else "out") (int_bound n)
  in
  let switch default targets =
    Ir.Switch
      { value = Ir.Const 0; cases = List.mapi (fun i l -> (i, l)) targets; default }
  in
  let term =
    oneof
      [ map (fun l -> Ir.Br l) target;
        map2
          (fun if_true if_false ->
            Ir.Cond_br { cond = Ir.Const 1; if_true; if_false })
          target target;
        map2 switch target (list_size (int_bound 3) target);
        return (Ir.Ret None);
        return Ir.Unreachable ]
  in
  let+ terms = list_repeat n term in
  let block i term = { Ir.label = Printf.sprintf "b%d" i; instrs = []; term } in
  { Ir.fname = "g"; params = []; returns_value = false; locals = [];
    blocks = List.mapi block terms }

let arb_cfg = QCheck.make ~print:(Fmt.str "%a" Ir.pp_func) gen_cfg

(* reach.(i).(j): a path of one or more edges leads from block i to j. *)
let brute_reach (f : Ir.func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let pos l =
    let rec go i =
      if i = n then None else if blocks.(i).label = l then Some i else go (i + 1)
    in
    go 0
  in
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    let rec visit j =
      if not reach.(i).(j) then begin
        reach.(i).(j) <- true;
        List.iter visit (List.filter_map pos (Ir.successors blocks.(j).term))
      end
    in
    List.iter visit (List.filter_map pos (Ir.successors blocks.(i).term))
  done;
  reach

let prop_sccs_mutual_reachability =
  QCheck.Test.make ~name:"sccs = mutual reachability" ~count:500 arb_cfg (fun f ->
      let g = Ir.sccs f in
      let reach = brute_reach f in
      let n = Array.length reach in
      let ok = ref (Array.to_list g.nodes = f.blocks) in
      for i = 0 to n - 1 do
        ok := !ok && g.in_cycle.(i) = reach.(i).(i);
        for j = 0 to n - 1 do
          let mutual = i = j || (reach.(i).(j) && reach.(j).(i)) in
          ok := !ok && (g.comp.(i) = g.comp.(j)) = mutual
        done
      done;
      !ok)

let prop_predecessors_invert_successors =
  QCheck.Test.make ~name:"predecessors invert successors" ~count:500 arb_cfg
    (fun f ->
      let preds = Ir.predecessors f in
      List.for_all
        (fun l ->
          preds l
          = List.rev
              (List.concat_map
                 (fun (b : Ir.block) ->
                   List.filter_map
                     (fun s -> if s = l then Some b.label else None)
                     (Ir.successors b.term))
                 f.blocks))
        ("out" :: "nowhere" :: List.map (fun (b : Ir.block) -> b.label) f.blocks))

let () =
  Alcotest.run "ir"
    [ ("interp",
       [ Alcotest.test_case "builder + interp" `Quick builder_and_interp;
         Alcotest.test_case "loops" `Quick loop_semantics;
         Alcotest.test_case "globals and calls" `Quick globals_and_calls;
         Alcotest.test_case "builtins" `Quick builtins_dispatch;
         Alcotest.test_case "fuel" `Quick fuel_bounds_runaway ]);
      ("semantics",
       [ Alcotest.test_case "32-bit arithmetic" `Quick arithmetic_32bit;
         Alcotest.test_case "icmp negation" `Quick negate_icmp_involution ]);
      ("switch",
       [ Alcotest.test_case "interp dispatch" `Quick switch_interp;
         Alcotest.test_case "verifier" `Quick switch_verifier ]);
      ("verify",
       [ Alcotest.test_case "catches violations" `Quick verifier_catches;
         Alcotest.test_case "accepts good modules" `Quick verifier_accepts_good;
         Alcotest.test_case "max_temp" `Quick max_temp_tracking ]);
      ("lint",
       [ Alcotest.test_case "clean function" `Quick lint_clean;
         Alcotest.test_case "unreachable block" `Quick lint_unreachable_block;
         Alcotest.test_case "maybe-undefined temp" `Quick lint_maybe_undefined;
         Alcotest.test_case "surfaces through driver" `Quick
           lint_surfaces_through_driver ]);
      ("graph",
       [ Qseed.to_alcotest prop_sccs_mutual_reachability;
         Qseed.to_alcotest prop_predecessors_invert_successors ]) ]
