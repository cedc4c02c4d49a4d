(* Tests for GlitchResistor: each defense pass in isolation (semantics
   preservation + the protection actually materialising), the compile
   driver, and a reduced-sweep run of the Table VI evaluation. *)

open Resistor

let builtins =
  [ ("__trigger_high", fun _ -> 0);
    ("__trigger_low", fun _ -> 0);
    ("__halt", fun _ -> 0);
    ("__flash_commit", fun _ -> 0) ]

let interp ?(entry = "main") m =
  match Ir.Interp.run ~builtins ~fuel:2_000_000 m ~entry ~args:[] with
  | Ok out -> out
  | Error e -> Alcotest.fail ("interp: " ^ e)

let compile config src = fst (Driver.compile_modul config src)

(* A defended program must behave exactly like the undefended one in the
   absence of glitches. *)
let same_behaviour ?(globals = []) name config src =
  let plain = compile Config.none src in
  let defended = compile config src in
  let out_plain = interp plain in
  let out_defended = interp defended in
  Alcotest.(check (option int)) (name ^ ": return") out_plain.ret out_defended.ret;
  List.iter
    (fun g ->
      Alcotest.(check int)
        (name ^ ": global " ^ g)
        (List.assoc g out_plain.globals)
        (List.assoc g out_defended.globals))
    globals

let terminating_src =
  {|
    enum status { OK, NOPE, MAYBE };
    volatile unsigned flag = 0;
    unsigned acc = 0;
    int classify(int v) {
      if (v > 10) { return OK; }
      if (v > 5) { return MAYBE; }
      return NOPE;
    }
    int lucky(void) { return 7; }
    int main(void) {
      for (int i = 0; i < 20; i = i + 1) {
        if (classify(i) == OK) { acc = acc + 2; }
        if (classify(i) == MAYBE) { acc = acc + 1; }
      }
      flag = acc;
      int x = 0;
      while (x < 5) { x = x + 1; }
      if (lucky() == 7) { acc = acc + 100; }
      return acc;
    }
  |}

(* --- config ------------------------------------------------------------- *)

let config_names () =
  Alcotest.(check (list (pair string string)))
    "Config.name of every named set"
    [ ("none", "None"); ("all", "All"); ("all-but-delay", "All\\Delay");
      ("all\\delay", "All\\Delay"); ("branches", "Branches");
      ("loops", "Loops"); ("integrity", "Integrity");
      ("returns", "Enums+Returns"); ("delay", "Delay"); ("sigcfi", "Sigcfi");
      ("domains", "Domains"); ("cfi", "Sigcfi+Domains");
      ("all-cfi", "All\\Delay+Sigcfi+Domains"); ("cfcss", "Cfcss") ]
    (List.map
       (fun (set, defenses) -> (set, Config.name (Config.make defenses)))
       Config.sets);
  Alcotest.(check string) "all" "All" (Config.name (Config.all ()));
  Alcotest.(check string) "paper subset" "Branches+Loops"
    (Config.name (Config.make [ Loops; Branches ]));
  Alcotest.(check bool) "any order, duplicates ignored" true
    (Config.make [ Sigcfi; Branches; Sigcfi; Enums ]
    = Config.make [ Enums; Branches; Sigcfi ]);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Config.defense_to_string d ^ " round trips")
        true
        (Config.defense_of_string (Config.defense_to_string d) = Some d))
    Config.all_defenses

(* --- enum rewriter --------------------------------------------------------- *)

let enum_rewriting () =
  let src = "enum a { X, Y, Z };\nenum b { P = 1, Q };\nint main(void) { return X; }" in
  let sema = Minic.Sema.check (Minic.Parser.program src) in
  let ast', report = Enum_rewriter.rewrite sema in
  Alcotest.(check (list string)) "skips initialized" [ "b" ] report.skipped;
  (match report.rewritten with
  | [ ("a", assignments) ] ->
    Alcotest.(check int) "three members" 3 (List.length assignments);
    Alcotest.(check bool) "hamming >= 8" true
      (Enum_rewriter.min_hamming_distance report >= 8)
  | _ -> Alcotest.fail "expected exactly enum a rewritten");
  (* the rewritten program must still check and keep b intact *)
  let sema' = Minic.Sema.check ast' in
  Alcotest.(check int) "P unchanged" 1 (List.assoc "P" sema'.enum_constants);
  Alcotest.(check bool) "X diversified" true
    (List.assoc "X" sema'.enum_constants <> 0)

let enum_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "enums" (Config.make [ Enums ])
    terminating_src

(* --- returns ------------------------------------------------------------------ *)

let returns_instrumentation () =
  let m = compile (Config.make [ Returns ]) terminating_src in
  (* lucky() returns only the constant 7 and is compared against 7 *)
  let lucky = Option.get (Ir.find_func m "lucky") in
  let ret_consts =
    List.filter_map
      (fun (b : Ir.block) ->
        match b.term with Ir.Ret (Some (Ir.Const c)) -> Some c | _ -> None)
      lucky.blocks
  in
  Alcotest.(check bool) "return diversified away from 7" true
    (ret_consts <> [] && not (List.mem 7 ret_consts));
  (* classify returns enum constants used in == compares: also eligible *)
  let classify = Option.get (Ir.find_func m "classify") in
  let classify_consts =
    List.filter_map
      (fun (b : Ir.block) ->
        match b.term with Ir.Ret (Some (Ir.Const c)) -> Some c | _ -> None)
      classify.blocks
  in
  Alcotest.(check bool) "classify instrumented" true
    (not (List.exists (fun c -> c < 3) classify_consts))

let returns_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "returns" (Config.make [ Returns ])
    terminating_src

let returns_skips_unsafe () =
  (* result stored in a global: not a direct comparison, must skip *)
  let src =
    "unsigned sink = 0;\nint f(void) { return 7; }\nint main(void) { sink = f(); return 0; }"
  in
  let m = compile (Config.make [ Returns ]) src in
  let f = Option.get (Ir.find_func m "f") in
  let consts =
    List.filter_map
      (fun (b : Ir.block) ->
        match b.term with Ir.Ret (Some (Ir.Const c)) -> Some c | _ -> None)
      f.blocks
  in
  (* the lowering's dead-code block contributes a ret 0; what matters is
     that 7 survives undiversified *)
  Alcotest.(check bool) "unchanged" true (List.mem 7 consts);
  let out = interp m in
  Alcotest.(check int) "sink still 7" 7 (List.assoc "sink" out.globals)

(* --- integrity ------------------------------------------------------------------ *)

let integrity_src =
  {|
    volatile unsigned secret = 5;
    unsigned out = 0;
    int main(void) {
      secret = 42;
      out = secret + 1;
      return out;
    }
  |}

let integrity_mechanism () =
  let config = Config.make ~sensitive:[ "secret" ] [ Integrity ] in
  let m = compile config integrity_src in
  (* shadow exists and is kept complementary *)
  Alcotest.(check bool) "shadow global" true
    (Ir.find_global m (Integrity.shadow_name "secret") <> None);
  let out = interp m in
  Alcotest.(check (option int)) "return" (Some 43) out.ret;
  Alcotest.(check int) "no detections" 0
    (List.assoc Detect.counter_global out.globals);
  Alcotest.(check int) "shadow complementary" (lnot 42 land 0xFFFFFFFF)
    (List.assoc (Integrity.shadow_name "secret") out.globals)

let integrity_detects_corruption () =
  let config =
    { (Config.make ~sensitive:[ "secret" ] [ Integrity ]) with
      reaction = Config.Record }
  in
  let src =
    "volatile unsigned secret = 5;\nint read_secret(void) { return secret; }\nint main(void) { return read_secret(); }"
  in
  let m = compile config src in
  (* sanity: the instrumented read passes when the shadow is intact *)
  let out = interp m in
  Alcotest.(check int) "clean run, no detections" 0
    (List.assoc Detect.counter_global out.globals);
  (* a "glitch": corrupt the stored value without touching its shadow
     (hand-written IR added after the pass ran), then perform an
     instrumented read *)
  let b = Ir.Builder.create ~fname:"attack_entry" ~params:[] ~returns_value:true in
  Ir.Builder.store ~volatile:true b (Ir.Global "secret") (Ir.Const 1234);
  let r = Option.get (Ir.Builder.call b ~dst:true "read_secret" []) in
  Ir.Builder.ret b (Some r);
  m.funcs <- m.funcs @ [ Ir.Builder.func b ];
  let out = interp ~entry:"attack_entry" m in
  Alcotest.(check bool) "detection fired" true
    (List.assoc Detect.counter_global out.globals > 0);
  (* the corrupted value was still returned: reaction policy decides
     what happens next, not the check itself *)
  Alcotest.(check (option int)) "corrupt value observed" (Some 1234) out.ret

let integrity_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "integrity"
    (Config.make ~sensitive:[ "flag" ] [ Integrity ])
    terminating_src

(* --- branches and loops ------------------------------------------------------------ *)

let branches_instrumentation_counts () =
  let m = compile Config.none terminating_src in
  let conds = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          match b.term with Ir.Cond_br _ -> incr conds | _ -> ())
        f.blocks)
    m.funcs;
  let m' = compile (Config.make [ Branches ]) terminating_src in
  let checks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          if String.length b.label > 8 && String.sub b.label 0 9 = "gr.branch" then
            incr checks)
        f.blocks)
    m'.funcs;
  Alcotest.(check bool)
    (Printf.sprintf "every branch checked (%d conds, %d blocks)" !conds !checks)
    true
    (!checks >= !conds)

let branches_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "branches" (Config.make [ Branches ])
    terminating_src

let loops_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "loops" (Config.make [ Loops ])
    terminating_src

let loops_find_headers () =
  let m = compile Config.none terminating_src in
  let main = Option.get (Ir.find_func m "main") in
  Alcotest.(check bool) "main has loop headers" true
    (List.length (Loops.guard_edges main) >= 2)

let branch_check_complements () =
  (* The re-check must use complemented operands: look for XOR with -1
     in the check blocks. *)
  let m = compile (Config.make [ Branches ]) terminating_src in
  let found = ref false in
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          if String.length b.label > 8 && String.sub b.label 0 9 = "gr.branch" then
            List.iter
              (fun i ->
                match i with
                | Ir.Binop { op = Ir.Xor; rhs = Ir.Const 0xFFFFFFFF; _ } ->
                  found := true
                | _ -> ())
              b.instrs)
        f.blocks)
    m.funcs;
  Alcotest.(check bool) "complemented re-check" true !found

(* --- delay ------------------------------------------------------------------------- *)

let delay_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "delay" (Config.make [ Delay ])
    terminating_src

let delay_mechanics () =
  let m = compile (Config.make [ Delay ]) terminating_src in
  Alcotest.(check bool) "seed global" true
    (Ir.find_global m Delay.seed_global <> None);
  Alcotest.(check bool) "delay fn" true (Ir.find_func m Delay.delay_fn <> None);
  Alcotest.(check bool) "init fn" true (Ir.find_func m Delay.init_fn <> None);
  (* the seed must change across the run (LCG advanced) *)
  let out = interp m in
  Alcotest.(check bool) "seed advanced" true
    (List.assoc Delay.seed_global out.globals <> 0x20210524)

let delay_covers_switch_blocks () =
  (* the paper: every block ending in a BranchInst or SwitchInst *)
  let src =
    "int f(int v) { switch (v) { case 1: return 1; default: return 2; } return 0; }\nint main(void) { return f(1); }"
  in
  let m = compile (Config.make [ Delay ]) src in
  let f = Option.get (Ir.find_func m "f") in
  let delayed_switch = ref false in
  List.iter
    (fun (b : Ir.block) ->
      match b.term with
      | Ir.Switch _ ->
        if
          List.exists
            (function
              | Ir.Call { callee; _ } -> callee = Delay.delay_fn
              | _ -> false)
            b.instrs
        then delayed_switch := true
      | _ -> ())
    f.blocks;
  Alcotest.(check bool) "switch block delayed" true !delayed_switch;
  (* and the defended switch still behaves *)
  same_behaviour "switch+delay" (Config.make [ Delay ]) src

let delay_opt_in_scope () =
  let config =
    { (Config.make [ Delay ]) with
      delay_scope = Config.Delay_opt_in [ "classify" ] }
  in
  let m = compile config terminating_src in
  let calls_delay (f : Ir.func) =
    let found = ref false in
    Ir.iter_instrs f (fun _ i ->
        match i with
        | Ir.Call { callee; _ } when callee = Delay.delay_fn -> found := true
        | _ -> ());
    !found
  in
  Alcotest.(check bool) "classify delayed" true
    (calls_delay (Option.get (Ir.find_func m "classify")));
  Alcotest.(check bool) "main not delayed" false
    (calls_delay (Option.get (Ir.find_func m "main")))

(* --- cfcss baseline --------------------------------------------------------------- *)

let cfcss_record = { (Config.make [ Cfcss ]) with reaction = Config.Record }

let cfcss_semantics_preserved () =
  (* signature checking must be invisible to a clean run *)
  let plain = compile Config.none terminating_src in
  let signed = compile cfcss_record terminating_src in
  let out_plain = interp plain in
  let out_signed = interp signed in
  Alcotest.(check (option int)) "return" out_plain.ret out_signed.ret;
  Alcotest.(check int) "no detections" 0
    (List.assoc Detect.counter_global out_signed.globals)

let cfcss_mechanics () =
  let m, reports = Driver.compile_modul cfcss_record terminating_src in
  let report = Option.get reports.cfcss_report in
  Alcotest.(check bool) "blocks signed" true (report.blocks_signed > 5);
  Alcotest.(check bool) "checks inserted" true (report.checks_inserted > 3);
  Alcotest.(check bool) "signature global" true
    (Ir.find_global m Cfcss.signature_global <> None)

let cfcss_detects_illegal_edge () =
  (* Jump into the middle of a signed function from outside: the entry
     check of the target block must fire. Simulate by calling a
     hand-written entry that leaves a bogus signature in G and then
     branches... the closest IR-level equivalent is calling a signed
     function with G set to garbage mid-block; instead corrupt G
     directly between two blocks via an unsigned helper. *)
  let m = compile cfcss_record terminating_src in
  (* helper that scribbles on G, standing in for a PC glitch landing in
     an unexpected block *)
  let b = Ir.Builder.create ~fname:"attack_entry" ~params:[] ~returns_value:true in
  Ir.Builder.store ~volatile:true b (Ir.Global Cfcss.signature_global)
    (Ir.Const 0xBAD);
  let r = Option.get (Ir.Builder.call b ~dst:true "classify" [ Ir.Const 20 ]) in
  Ir.Builder.ret b (Some r);
  m.funcs <- m.funcs @ [ Ir.Builder.func b ];
  (* classify's entry block signs G itself, so the corruption must be
     detected at the first *successor* block check only if the entry's
     signature write is skipped; calling normally re-signs. Therefore
     corrupt between blocks: interp the module entry that calls classify
     normally and confirm no detection (legal path)... *)
  let out = interp ~entry:"attack_entry" m in
  ignore out.ret;
  (* The call itself is legal, so detections here are zero -- the
     illegal-edge case needs sub-block granularity that only shows up on
     the board under real glitches (exercised by the ablation bench).
     What we can check statically: every non-entry block with multiple
     predecessors got a check chain. *)
  let f = Option.get (Ir.find_func m "main") in
  let has_chain =
    List.exists
      (fun (blk : Ir.block) ->
        String.length blk.label >= 9 && String.sub blk.label 0 9 = "gr.cfcss.")
      f.blocks
  in
  Alcotest.(check bool) "check chains present" true has_chain

(* --- sigcfi (FIPAC-style running-signature CFI) ------------------------------------ *)

let sigcfi_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "sigcfi" (Config.make [ Sigcfi ])
    terminating_src

let sigcfi_mechanics () =
  let m, reports =
    Driver.compile_modul (Config.make [ Sigcfi ]) terminating_src
  in
  let r = Option.get reports.sigcfi_report in
  Alcotest.(check bool) "blocks signed" true (r.blocks_signed > 5);
  Alcotest.(check bool) "edges split" true (r.updates_inserted > 5);
  Alcotest.(check bool) "sink checks" true (r.checks_inserted >= 4);
  Alcotest.(check bool) "state global" true
    (Ir.find_global m Sigcfi.state_global <> None);
  (* clean run stays silent *)
  let out = interp m in
  Alcotest.(check int) "no detections" 0
    (List.assoc Detect.counter_global out.globals);
  (* the branchless step must agree with the field it models: it is
     GF(2^8) multiplication by the generator, the same function the
     compile-time patch constants are derived with *)
  for x = 0 to 255 do
    Alcotest.(check int)
      (Printf.sprintf "step %d = gf256 mul by alpha" x)
      (Reedsolomon.Gf256.mul x 2) (Sigcfi.step x)
  done

let sigcfi_detects_illegal_edge () =
  (* Instrument by hand with the Record reaction, then simulate a PC
     glitch: rewrite classify's terminators to bypass the edge-split
     state updates. The running accumulator keeps the *source* block's
     signature, so the sink check at the return must fire. *)
  let m = compile Config.none terminating_src in
  let (_ : Sigcfi.report) = Sigcfi.run Config.Record m in
  let classify = Option.get (Ir.find_func m "classify") in
  let is_glue l = String.length l >= 12 && String.sub l 0 12 = "gr.sigcfi.up" in
  let glue_target l =
    let b = List.find (fun (b : Ir.block) -> b.Ir.label = l) classify.blocks in
    match b.term with Ir.Br t -> t | _ -> Alcotest.fail "glue without Br"
  in
  let bypass l = if is_glue l then glue_target l else l in
  List.iter
    (fun (b : Ir.block) ->
      if not (is_glue b.Ir.label) then
        b.term <-
          (match b.term with
          | Ir.Br l -> Ir.Br (bypass l)
          | Ir.Cond_br { cond; if_true; if_false } ->
            Ir.Cond_br
              { cond; if_true = bypass if_true; if_false = bypass if_false }
          | Ir.Switch { value; cases; default } ->
            Ir.Switch
              { value;
                cases = List.map (fun (v, l) -> (v, bypass l)) cases;
                default = bypass default }
          | t -> t))
    classify.blocks;
  let b = Ir.Builder.create ~fname:"attack_entry" ~params:[] ~returns_value:true in
  let r = Option.get (Ir.Builder.call b ~dst:true "classify" [ Ir.Const 20 ]) in
  Ir.Builder.ret b (Some r);
  m.funcs <- m.funcs @ [ Ir.Builder.func b ];
  let out = interp ~entry:"attack_entry" m in
  Alcotest.(check bool) "detection fired" true
    (List.assoc Detect.counter_global out.globals > 0)

(* --- domains (SCRAMBLE-CFI-style clusters) ----------------------------------------- *)

let domains_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "domains" (Config.make [ Domains ])
    terminating_src

let domains_mechanics () =
  let m, reports =
    Driver.compile_modul (Config.make [ Domains ]) terminating_src
  in
  let r = Option.get reports.domains_report in
  Alcotest.(check int) "clusters" 2 r.clusters;
  Alcotest.(check int) "main anchors cluster 0" 0 (List.assoc "main" r.domains);
  Alcotest.(check bool) "entry+return checks" true (r.checks_inserted >= 6);
  Alcotest.(check bool) "domain register" true
    (Ir.find_global m Domains.domain_global <> None);
  (* cluster keys are distinct and nonzero, so no bridge is an identity *)
  let keys = List.init r.clusters (Domains.cluster_key ~key:r.key) in
  Alcotest.(check bool) "keys nonzero" true (List.for_all (fun k -> k <> 0) keys);
  Alcotest.(check int) "keys distinct" r.clusters
    (List.length (List.sort_uniq compare keys));
  let out = interp m in
  Alcotest.(check int) "no detections" 0
    (List.assoc Detect.counter_global out.globals)

let domains_detects_escape () =
  (* A glitch that lands in another cluster without crossing a bridge
     leaves the old key in the domain register: scribble on it and make
     an un-bridged call, the callee's entry check must fire. *)
  let config = { (Config.make [ Domains ]) with reaction = Config.Record } in
  let m = compile config terminating_src in
  let b = Ir.Builder.create ~fname:"attack_entry" ~params:[] ~returns_value:true in
  Ir.Builder.store ~volatile:true b (Ir.Global Domains.domain_global)
    (Ir.Const 0);
  let r = Option.get (Ir.Builder.call b ~dst:true "classify" [ Ir.Const 20 ]) in
  Ir.Builder.ret b (Some r);
  m.funcs <- m.funcs @ [ Ir.Builder.func b ];
  let out = interp ~entry:"attack_entry" m in
  Alcotest.(check bool) "detection fired" true
    (List.assoc Detect.counter_global out.globals > 0)

let cfi_stacked_semantics_preserved () =
  same_behaviour ~globals:[ "flag" ] "stacked cfi"
    (Config.make ~sensitive:[ "flag"; "acc" ]
       (Sigcfi :: Domains :: (Config.all ()).defenses))
    terminating_src

(* --- driver + firmware ---------------------------------------------------------------- *)

let all_firmware_compiles_under_all_configs () =
  List.iter
    (fun (label, config) ->
      List.iter
        (fun (name, src) ->
          match Driver.compile config src with
          | compiled ->
            Alcotest.(check bool)
              (Printf.sprintf "%s under %s links" name label)
              true
              (Array.length compiled.image.words > 0)
          | exception e ->
            Alcotest.fail
              (Printf.sprintf "%s under %s: %s" name label (Printexc.to_string e)))
        [ ("boot_tick", Firmware.boot_tick);
          ("guard_loop", Firmware.guard_loop);
          ("if_success", Firmware.if_success) ])
    Overhead.configurations

let all_defended_behaviour_matches () =
  same_behaviour ~globals:[ "flag" ] "all defenses"
    (Config.all ~sensitive:[ "flag"; "acc" ] ())
    terminating_src

(* One compile of every Table IV/V row, shared by the tests below. *)
let overhead_rows = lazy (Overhead.all_rows ())

let boot_fires_trigger_under_every_config () =
  List.iter
    (fun (r : Overhead.row) ->
      Alcotest.(check bool)
        (r.label ^ " boots")
        true (r.boot_cycles > 0);
      Alcotest.(check bool)
        (r.label ^ " grows text")
        true
        (r.label = "None" || r.text_bytes >= 584))
    (Lazy.force overhead_rows)

(* Tables IV and V frozen row by row as (label, boot cycles, text, data,
   bss, total): the ordering checks below would pass a drift in any
   single figure. *)
let overhead_golden_rows () =
  Alcotest.(check (list (pair string (list int))))
    "label, [boot cycles; text; data; bss; total]"
    [ ("None", [ 3995; 584; 4; 12; 600 ]);
      ("Branches", [ 6361; 1208; 4; 16; 1228 ]);
      ("Delay", [ 224054; 816; 8; 12; 836 ]);
      ("Integrity", [ 3995; 804; 8; 16; 828 ]);
      ("Loops", [ 4030; 728; 4; 16; 748 ]);
      ("Returns", [ 3999; 620; 4; 12; 636 ]);
      ("All\\Delay", [ 6409; 1728; 8; 16; 1752 ]);
      ("All", [ 256708; 2072; 12; 16; 2100 ]);
      ("Sigcfi", [ 20371; 1492; 4; 20; 1516 ]);
      ("Domains", [ 4418; 1460; 8; 16; 1484 ]);
      ("All\\Delay+Sigcfi+Domains", [ 29349; 4244; 12; 20; 4276 ]) ]
    (List.map
       (fun (r : Overhead.row) ->
         ( r.label,
           [ r.boot_cycles; r.text_bytes; r.data_bytes; r.bss_bytes;
             r.total_bytes ] ))
       (Lazy.force overhead_rows))

(* Digest of a whole linked image: words, sections, data, symbols. *)
let image_digest (image : Lower.Layout.image) =
  Digest.to_hex (Digest.string (Marshal.to_string image [ Marshal.No_sharing ]))

(* The guard loop built under every --defenses set name with
   sensitive = [a], frozen as image digests: a change to how a set name
   maps to passes, or to the order the passes run in, moves a digest. *)
let defense_set_images =
  [ ("none", "425195f40a17f300bd73df03ea2bf34d");
    ("all", "6c61fc126098e36ecfd534f81c29e450");
    ("all-but-delay", "c5d640c16733537d7e4c00ef8887c2af");
    ("all\\delay", "c5d640c16733537d7e4c00ef8887c2af");
    ("branches", "4cbd7a6f6fab168e5f40b4f517bcb4fe");
    ("loops", "3384b1301b85d89e65937647b29ccec1");
    ("integrity", "e4d73276f5fcfd761eab4a00555825e4");
    ("returns", "425195f40a17f300bd73df03ea2bf34d");
    ("delay", "f132c3bcff0279e84d14b4f8e1d85935");
    ("sigcfi", "a811735f2fd548aea2eaa25352aace91");
    ("domains", "b2935fe23c5b5e5e80b2febd120365fc");
    ("cfi", "4d41353676ce63f6edd8efe5477d685e");
    ("all-cfi", "e09c142e312187f31bfd6c663fe39537");
    ("cfcss", "24561a7f1f1ae299eac452afa0511fb5") ]

let guard_loop_image name =
  let config = Config.set ~sensitive:[ "a" ] name in
  (Driver.compile config Firmware.guard_loop).image

let defense_set_image_identity () =
  Alcotest.(check (list string))
    "every set name pinned" (List.map fst Config.sets)
    (List.map fst defense_set_images);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected (image_digest (guard_loop_image name)))
    defense_set_images

let overhead_ordering () =
  let rows = Lazy.force overhead_rows in
  let find label = List.find (fun (r : Overhead.row) -> r.label = label) rows in
  let none = find "None" and delay = find "Delay" and all = find "All" in
  let all_nd = find "All\\Delay" in
  Alcotest.(check bool) "delay dominates boot time" true
    (delay.boot_cycles > 20 * none.boot_cycles);
  Alcotest.(check bool) "delay constant ~ flash commit" true
    (delay.boot_cycles - none.boot_cycles > Overhead.flash_commit_cycles / 2);
  let paper_labels = List.map fst Overhead.paper_configurations in
  Alcotest.(check bool) "all is the largest paper image" true
    (List.for_all
       (fun (r : Overhead.row) ->
         (not (List.mem r.label paper_labels)) || r.total_bytes <= all.total_bytes)
       rows);
  let stacked = find "All\\Delay+Sigcfi+Domains" in
  Alcotest.(check bool) "stacked cfi larger than all\\delay" true
    (stacked.total_bytes > all_nd.total_bytes);
  Alcotest.(check bool) "all\\delay cheaper than all" true
    (all_nd.boot_cycles < all.boot_cycles)

(* --- evaluation (reduced sweep) --------------------------------------------------------- *)

let defended_beats_undefended () =
  let run config =
    Evaluate.run ~sweep_step:7 config Evaluate.Worst_case Evaluate.Single
  in
  let undefended = run Config.none in
  let defended = run (Config.all_but_delay ~sensitive:[ "a" ] ()) in
  Alcotest.(check bool)
    (Printf.sprintf "undefended glitchable (%d successes)" undefended.successes)
    true (undefended.successes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "defended safer (%d <= %d)" defended.successes
       undefended.successes)
    true
    (defended.successes <= undefended.successes)

let long_attacks_detected () =
  let o =
    Evaluate.run ~sweep_step:7
      (Config.all_but_delay ~sensitive:[ "a" ] ())
      Evaluate.Worst_case Evaluate.Long
  in
  Alcotest.(check bool)
    (Printf.sprintf "detections occur (%d)" o.detections)
    true (o.detections > 0)

(* Table VI counts on a 1-in-7 sweep of the guard loop, frozen as
   (attempts, successes, detections) per attack. The inequality tests
   above would pass a drift in any of them. *)
let evaluate_golden_counts () =
  let counts config attack =
    let o = Evaluate.run ~sweep_step:7 config Evaluate.Worst_case attack in
    [ o.attempts; o.successes; o.detections ]
  in
  List.iter
    (fun (name, config, expected) ->
      Alcotest.(check (list (list int)))
        (name ^ ": single, long, windowed") expected
        (List.map (counts config) Evaluate.[ Single; Long; Windowed ]))
    [ ( "none", Config.none,
        [ [ 2475; 22; 0 ]; [ 2250; 64; 0 ]; [ 2475; 23; 0 ] ] );
      ( "all-but-delay", Config.all_but_delay ~sensitive:[ "a" ] (),
        [ [ 2475; 0; 17 ]; [ 2250; 0; 47 ]; [ 2475; 0; 30 ] ] ) ]

let evaluate_jobs_parity () =
  (* rows drain through the same pool path at every job count *)
  let run ?pool () =
    Evaluate.run ?pool ~sweep_step:7 Config.none Evaluate.Worst_case
      Evaluate.Single
  in
  let plain = run () in
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      let par = run ~pool () in
      Alcotest.(check (list int)) "attempts, successes, detections"
        [ plain.attempts; plain.successes; plain.detections ]
        [ par.attempts; par.successes; par.detections ])

let () =
  Alcotest.run "resistor"
    [ ("config", [ Alcotest.test_case "names" `Quick config_names ]);
      ("enum-rewriter",
       [ Alcotest.test_case "rewrites uninitialized only" `Quick enum_rewriting;
         Alcotest.test_case "semantics preserved" `Quick enum_semantics_preserved ]);
      ("returns",
       [ Alcotest.test_case "instruments eligible" `Quick returns_instrumentation;
         Alcotest.test_case "semantics preserved" `Quick returns_semantics_preserved;
         Alcotest.test_case "skips unsafe uses" `Quick returns_skips_unsafe ]);
      ("integrity",
       [ Alcotest.test_case "shadow mechanics" `Quick integrity_mechanism;
         Alcotest.test_case "detects bypassing writes" `Quick
           integrity_detects_corruption;
         Alcotest.test_case "semantics preserved" `Quick
           integrity_semantics_preserved ]);
      ("redundancy",
       [ Alcotest.test_case "branch instrumentation" `Quick
           branches_instrumentation_counts;
         Alcotest.test_case "branches semantics" `Quick branches_semantics_preserved;
         Alcotest.test_case "loops semantics" `Quick loops_semantics_preserved;
         Alcotest.test_case "loop headers found" `Quick loops_find_headers;
         Alcotest.test_case "complemented re-checks" `Quick branch_check_complements ]);
      ("delay",
       [ Alcotest.test_case "semantics preserved" `Quick delay_semantics_preserved;
         Alcotest.test_case "mechanics" `Quick delay_mechanics;
         Alcotest.test_case "switch blocks delayed" `Quick delay_covers_switch_blocks;
         Alcotest.test_case "opt-in scope" `Quick delay_opt_in_scope ]);
      ("driver",
       [ Alcotest.test_case "all firmware x all configs" `Quick
           all_firmware_compiles_under_all_configs;
         Alcotest.test_case "all defenses behave" `Quick all_defended_behaviour_matches;
         Alcotest.test_case "boot rows" `Quick boot_fires_trigger_under_every_config;
         Alcotest.test_case "overhead ordering" `Quick overhead_ordering;
         Alcotest.test_case "overhead golden rows" `Quick overhead_golden_rows;
         Alcotest.test_case "image per defense set" `Quick
           defense_set_image_identity ]);
      ("sigcfi",
       [ Alcotest.test_case "semantics preserved" `Quick sigcfi_semantics_preserved;
         Alcotest.test_case "mechanics" `Quick sigcfi_mechanics;
         Alcotest.test_case "detects illegal edges" `Quick
           sigcfi_detects_illegal_edge ]);
      ("domains",
       [ Alcotest.test_case "semantics preserved" `Quick domains_semantics_preserved;
         Alcotest.test_case "mechanics" `Quick domains_mechanics;
         Alcotest.test_case "detects domain escape" `Quick domains_detects_escape;
         Alcotest.test_case "stacked with all" `Quick cfi_stacked_semantics_preserved ]);
      ("cfcss",
       [ Alcotest.test_case "semantics preserved" `Quick cfcss_semantics_preserved;
         Alcotest.test_case "mechanics" `Quick cfcss_mechanics;
         Alcotest.test_case "structure" `Quick cfcss_detects_illegal_edge ]);
      ("evaluation",
       [ Alcotest.test_case "defended beats undefended" `Slow
           defended_beats_undefended;
         Alcotest.test_case "long attacks detected" `Slow long_attacks_detected;
         Alcotest.test_case "jobs 1 = jobs 3" `Slow evaluate_jobs_parity;
         Alcotest.test_case "golden counts" `Slow evaluate_golden_counts ]) ]
