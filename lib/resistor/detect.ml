let detected_fn = "__gr_detected"
let counter_global = "__gr_detect_count"

let arm label ~next =
  { Ir.label;
    instrs = [ Ir.Call { dst = None; callee = detected_fn; args = [] } ];
    term = Ir.Br next }

let is_call = function
  | Ir.Call { callee; _ } -> callee = detected_fn
  | Ir.Load _ | Ir.Store _ | Ir.Binop _ | Ir.Icmp _ -> false

let matches fresh global expected =
  let t = Pass.temp fresh in
  let v = Pass.temp fresh in
  ( [ Ir.Load { dst = t; src = Ir.Global global; volatile = true };
      Ir.Icmp { dst = v; op = Ir.Eq; lhs = Ir.Temp t; rhs = Ir.Const expected } ],
    Ir.Temp v )

let check_ret fresh ~hint global expected (b : Ir.block) =
  let ret_label = Pass.label fresh (hint ^ ".ret") in
  let bad_label = Pass.label fresh (hint ^ ".bad") in
  let instrs, ok = matches fresh global expected in
  let ret = { Ir.label = ret_label; instrs = []; term = b.term } in
  b.instrs <- b.instrs @ instrs;
  b.term <- Ir.Cond_br { cond = ok; if_true = ret_label; if_false = bad_label };
  [ ret; arm bad_label ~next:ret_label ]

let ensure reaction (m : Ir.modul) =
  Pass.ensure_global m counter_global ~init:0 ~volatile:true;
  Pass.ensure_func m detected_fn (fun () ->
      let b = Ir.Builder.create ~fname:detected_fn ~params:[] ~returns_value:false in
      let v = Ir.Builder.load ~volatile:true b (Ir.Global counter_global) in
      let v' = Ir.Builder.binop b Ir.Add v (Ir.Const 1) in
      Ir.Builder.store ~volatile:true b (Ir.Global counter_global) v';
      (match (reaction : Config.reaction) with
      | Config.Record -> Ir.Builder.ret b None
      | Config.Halt ->
        ignore (Ir.Builder.call b "__halt" []);
        Ir.Builder.ret b None;
        Pass.ensure_extern m "__halt"
      | Config.Spin ->
        Ir.Builder.br b "spin";
        let _spin = Ir.Builder.new_block b "spin" in
        Ir.Builder.br b "spin");
      Ir.Builder.func b)

let detections read_global =
  match read_global counter_global with Some n -> n | None -> 0
