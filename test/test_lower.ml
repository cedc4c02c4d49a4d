(* End-to-end tests for the compiler pipeline: Mini-C -> IR -> Thumb ->
   simulated machine. The key property is differential: the IR
   interpreter and the generated machine code must agree on return
   values and final global state for every program. *)

let compile src = Lower.Ast_lower.modul_of_source src

(* substring containment *)
let astring_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run the linked image on the plain machine until BKPT; return r0 and a
   reader for globals. *)
let run_machine (m : Ir.modul) =
  let image = Lower.Layout.link m in
  let t = Lower.Layout.load image in
  match Machine.Exec.run ~max_steps:2_000_000 t.mem t.cpu with
  | Machine.Exec.Breakpoint 0 ->
    let r0 = Machine.Exec.get t.cpu Thumb.Reg.r0 in
    let global name =
      match
        Machine.Memory.read_u32 t.mem (List.assoc name image.global_addrs)
      with
      | Ok v -> v
      | Error _ -> Alcotest.fail ("cannot read global " ^ name)
    in
    (r0, global)
  | stop -> Alcotest.fail (Fmt.str "machine stopped: %a" Machine.Exec.pp_stop stop)

let differential ?(args = []) name src =
  let m = compile src in
  let interp =
    match Ir.Interp.run m ~entry:"main" ~args with
    | Ok out -> out
    | Error e -> Alcotest.fail ("interp: " ^ e)
  in
  let r0, global = run_machine m in
  (match interp.ret with
  | Some expected ->
    Alcotest.(check int) (name ^ ": return value") expected r0
  | None -> ());
  List.iter
    (fun (gname, v) ->
      Alcotest.(check int) (name ^ ": global " ^ gname) v (global gname))
    interp.globals

(* --- concrete programs ------------------------------------------------- *)

let simple_arith () =
  differential "arith"
    "int main(void) { return (3 + 4) * 5 - 6 / 2; }"

let loops_and_branches () =
  differential "loops"
    {|
      int sum = 0;
      int main(void) {
        for (int i = 1; i <= 10; i = i + 1) {
          if (i % 2 == 0) { sum = sum + i; }
        }
        return sum;
      }
    |}

let while_guard () =
  differential "while"
    {|
      int main(void) {
        int n = 100;
        while (n) { n = n - 7; if (n < 0) { break; } }
        return n;
      }
    |}

let calls_and_recursion () =
  differential "fib"
    {|
      int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
      }
      int main(void) { return fib(12); }
    |}

let division_runtime () =
  differential "division"
    {|
      int main(void) {
        int a = 0 - 100;
        int q = a / 7;
        int r = a % 7;
        unsigned u = 3000000000;
        unsigned v = u / 3;
        return q * 1000 + r * 10 + (v == 1000000000);
      }
    |}

let shifts_signedness () =
  differential "shifts"
    {|
      int main(void) {
        int s = 0 - 8;
        unsigned u = 4294967288;
        return (s >> 1) + (u >> 1 > 1000);
      }
    |}

let short_circuit () =
  differential "short-circuit"
    {|
      int calls = 0;
      int bump(void) { calls = calls + 1; return 1; }
      int main(void) {
        int a = 0;
        int r1 = a && bump();
        int r2 = a || bump();
        int r3 = bump() || bump();
        return r1 * 100 + r2 * 10 + r3;
      }
    |}

let enums_and_globals () =
  differential "enums"
    {|
      enum status { OK, FAIL, RETRY };
      volatile unsigned flag = 0;
      int main(void) {
        flag = RETRY;
        if (flag == RETRY) { return OK; }
        return FAIL;
      }
    |}

let do_while_continue () =
  differential "do-while"
    {|
      int main(void) {
        int i = 0;
        int acc = 0;
        do {
          i = i + 1;
          if (i == 3) { continue; }
          acc = acc + i;
        } while (i < 6);
        return acc;
      }
    |}

let paper_guard_compiles () =
  (* while(a != 0xD3B9AEC6): the Table I(c) guard must produce a
     literal-pool load, and exiting requires the exact constant. *)
  differential "hamming guard"
    {|
      volatile unsigned a = 0xE7D25763;
      int main(void) {
        int spins = 0;
        while (a != 0xD3B9AEC6) {
          spins = spins + 1;
          if (spins == 3) { a = 0xD3B9AEC6; }
        }
        return spins;
      }
    |}

let nested_control () =
  differential "nested"
    {|
      int classify(int v) {
        if (v < 0) { return 0 - 1; }
        else { if (v == 0) { return 0; } else { return 1; } }
      }
      int main(void) {
        return classify(0 - 5) + classify(0) * 10 + classify(7) * 100;
      }
    |}

let switch_fallthrough () =
  differential "switch"
    {|
      int classify(int v) {
        int r = 0;
        switch (v) {
          case 0:
          case 1:
            r = 100;
            break;
          case 2:
            r = r + 1;   /* falls through */
          case 3:
            r = r + 10;
            break;
          default:
            r = 999;
        }
        return r;
      }
      int main(void) {
        return classify(0) + classify(1) * 2 + classify(2) * 4 + classify(3) * 8
               + classify(7) * 16;
      }
    |}

let switch_on_enum () =
  differential "switch-enum"
    {|
      enum cmd { STOP, GO, TURN };
      int dispatch(int c) {
        switch (c) {
          case STOP: return 1;
          case GO: return 2;
          case TURN: return 3;
        }
        return 0;
      }
      int main(void) {
        return dispatch(STOP) + dispatch(GO) * 10 + dispatch(TURN) * 100
               + dispatch(42) * 1000;
      }
    |}

(* --- randomised differential testing ------------------------------------- *)

(* Generate a small straight-line + loop program over two globals. *)
let gen_program : string QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_expr_str depth =
    fix
      (fun self (depth, _) ->
        if depth = 0 then
          oneof
            [ map string_of_int (int_bound 100);
              oneofl [ "x"; "y" ] ]
        else
          let* op = oneofl [ "+"; "-"; "*"; "&"; "|"; "^"; "<<"; ">>"; "=="; "!=" ] in
          let* l = self (depth - 1, ()) in
          let* r = self (depth - 1, ()) in
          (* keep shifts small and well-defined *)
          if op = "<<" || op = ">>" then return (Printf.sprintf "((%s) %s 3)" l op)
          else return (Printf.sprintf "((%s) %s (%s))" l op r))
      (depth, ())
  in
  let* e1 = gen_expr_str 3 in
  let* e2 = gen_expr_str 3 in
  let* e3 = gen_expr_str 2 in
  let* bound = int_range 1 8 in
  return
    (Printf.sprintf
       {|
         unsigned x = 7;
         unsigned y = 9;
         int main(void) {
           for (int i = 0; i < %d; i = i + 1) {
             x = %s;
             y = %s;
           }
           return %s;
         }
       |}
       bound e1 e2 e3)

let prop_differential =
  let arb = QCheck.make ~print:(fun s -> s) gen_program in
  QCheck.Test.make ~name:"interp = machine on random programs" ~count:60 arb
    (fun src ->
      let m = compile src in
      match Ir.Interp.run m ~entry:"main" ~args:[] with
      | Error _ -> false
      | Ok interp ->
        let r0, global = run_machine m in
        interp.ret = Some r0
        && List.for_all (fun (g, v) -> global g = v) interp.globals)

(* --- codegen mechanics ------------------------------------------------------ *)

let literal_pool_used () =
  let m = compile "unsigned main(void) { return 0xD3B9AEC6; }" in
  let image = Lower.Layout.link m in
  (* 0xD3B9AEC6 must appear as a 32-bit literal somewhere in text *)
  let found = ref false in
  Array.iteri
    (fun i w ->
      if
        i + 1 < Array.length image.words
        && w = 0xD3B9AEC6 land 0xFFFF
        && image.words.(i + 1) = 0xD3B9AEC6 lsr 16
      then found := true)
    image.words;
  Alcotest.(check bool) "pool constant present" true !found

let symbols_and_sections () =
  let m =
    compile
      "int used = 5;\nint zeroed;\nint helper(void) { return used; }\nint main(void) { return helper() + zeroed; }"
  in
  let image = Lower.Layout.link m in
  Alcotest.(check bool) "main symbol" true
    (List.mem_assoc "main" image.symbols);
  Alcotest.(check bool) "runtime symbol" true
    (List.mem_assoc "__idiv" image.symbols);
  Alcotest.(check int) "data holds one word" 4 image.data.size;
  Alcotest.(check int) "bss holds one word" 4 image.bss.size;
  let report = Lower.Layout.size_report image in
  Alcotest.(check int) "report total"
    (image.text.size + 8)
    (List.assoc "total" report)

let gpio_symbol_resolves () =
  let m =
    Lower.Ast_lower.modul_of_source
      ~externs:[ ("__trigger_high", 0); ("__halt", 0) ]
      "int main(void) { __trigger_high(); __halt(); return 0; }"
  in
  let image = Lower.Layout.link m in
  let found = ref false in
  Array.iteri
    (fun i w ->
      if
        i + 1 < Array.length image.words
        && w = Lower.Codegen.gpio_trigger_address land 0xFFFF
        && image.words.(i + 1) = Lower.Codegen.gpio_trigger_address lsr 16
      then found := true)
    image.words;
  Alcotest.(check bool) "gpio address in pool" true !found

let volatile_loads_preserved () =
  (* Two reads of a volatile global must produce two loads in IR. *)
  let m =
    compile
      "volatile unsigned a = 1;\nint main(void) { return a + a; }"
  in
  let f = Option.get (Ir.find_func m "main") in
  let volatile_loads = ref 0 in
  Ir.iter_instrs f (fun _ i ->
      match i with
      | Ir.Load { volatile = true; _ } -> incr volatile_loads
      | _ -> ());
  Alcotest.(check int) "two volatile loads" 2 !volatile_loads

let objdump_listing () =
  let m = compile "int main(void) { return 42; }" in
  let image = Lower.Layout.link m in
  let listing = Lower.Objdump.to_string image in
  Alcotest.(check bool) "has main symbol" true
    (astring_contains listing "<main>:");
  Alcotest.(check bool) "has crt0 symbol" true
    (astring_contains listing "<__start>:");
  Alcotest.(check bool) "decodes movs" true
    (astring_contains listing "movs r0, #42")

let literal_pool_dedup () =
  (* the same constant referenced twice must share one pool slot *)
  let m =
    compile
      "unsigned main(void) { unsigned a = 0xD3B9AEC6; unsigned b = 0xD3B9AEC6; return a ^ b; }"
  in
  let f = Option.get (Ir.find_func m "main") in
  let c = Lower.Codegen.func m f in
  let occurrences = ref 0 in
  Array.iteri
    (fun i w ->
      if
        i + 1 < Array.length c.words
        && w = 0xD3B9AEC6 land 0xFFFF
        && c.words.(i + 1) = 0xD3B9AEC6 lsr 16
      then incr occurrences)
    c.words;
  Alcotest.(check int) "one pool entry" 1 !occurrences;
  (* and the program still computes a ^ b = 0 *)
  let r0, _ = run_machine m in
  Alcotest.(check int) "xor cancels" 0 r0

let big_frame_spills () =
  (* >127 slots forces split SP adjustments; semantics must hold *)
  let decls =
    String.concat "\n"
      (List.init 55 (fun i -> Printf.sprintf "int v%d = %d;" i i))
  in
  let sum =
    String.concat " + " (List.init 55 (fun i -> Printf.sprintf "v%d" i))
  in
  let src = Printf.sprintf "int main(void) { %s return %s; }" decls sum in
  differential "big frame" src

let frame_overflow_rejected () =
  (* past 255 slots the backend must fail loudly, not corrupt silently *)
  let decls =
    String.concat "\n"
      (List.init 300 (fun i -> Printf.sprintf "int w%d = %d;" i i))
  in
  let src = Printf.sprintf "int main(void) { %s return w0; }" decls in
  let m = compile src in
  (match Lower.Layout.link m with
  | exception Lower.Codegen.Error _ -> ()
  | _ -> Alcotest.fail "expected a frame-size error")

let too_many_args_rejected () =
  let src =
    "int f(int a, int b, int c, int d, int e) { return a + b + c + d + e; }\nint main(void) { return f(1, 2, 3, 4, 5); }"
  in
  let m = compile src in
  match Lower.Layout.link m with
  | exception Lower.Codegen.Error _ -> ()
  | _ -> Alcotest.fail "expected an arity limit error"

let lowering_rejects () =
  let expect_error src =
    match Lower.Ast_lower.modul_of_source src with
    | exception Lower.Ast_lower.Error _ -> ()
    | _ -> Alcotest.fail ("expected lowering error for " ^ src)
  in
  expect_error "int main(void) { return missing; }";
  expect_error "int main(void) { return f(); }"

let () =
  let props = List.map Qseed.to_alcotest [ prop_differential ] in
  Alcotest.run "lower"
    [ ("differential",
       [ Alcotest.test_case "arith" `Quick simple_arith;
         Alcotest.test_case "loops" `Quick loops_and_branches;
         Alcotest.test_case "while guard" `Quick while_guard;
         Alcotest.test_case "recursion" `Quick calls_and_recursion;
         Alcotest.test_case "division" `Quick division_runtime;
         Alcotest.test_case "shift signedness" `Quick shifts_signedness;
         Alcotest.test_case "short circuit" `Quick short_circuit;
         Alcotest.test_case "enums and globals" `Quick enums_and_globals;
         Alcotest.test_case "do-while/continue" `Quick do_while_continue;
         Alcotest.test_case "paper guard" `Quick paper_guard_compiles;
         Alcotest.test_case "nested control" `Quick nested_control;
         Alcotest.test_case "switch fallthrough" `Quick switch_fallthrough;
         Alcotest.test_case "switch on enum" `Quick switch_on_enum ]);
      ("random", props);
      ("codegen",
       [ Alcotest.test_case "literal pool" `Quick literal_pool_used;
         Alcotest.test_case "symbols and sections" `Quick symbols_and_sections;
         Alcotest.test_case "gpio trigger" `Quick gpio_symbol_resolves;
         Alcotest.test_case "volatile loads" `Quick volatile_loads_preserved;
         Alcotest.test_case "literal pool dedup" `Quick literal_pool_dedup;
         Alcotest.test_case "big frames" `Quick big_frame_spills;
         Alcotest.test_case "frame overflow rejected" `Quick frame_overflow_rejected;
         Alcotest.test_case "arg limit rejected" `Quick too_many_args_rejected;
         Alcotest.test_case "objdump listing" `Quick objdump_listing;
         Alcotest.test_case "rejects bad programs" `Quick lowering_rejects ]) ]
