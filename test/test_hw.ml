(* Tests for the hardware simulation: deterministic randomness, the
   susceptibility landscape, board/trigger mechanics, glitcher
   behaviour, the attack programs of Tables I-III, and the qualitative
   results the paper reports. *)

open Hw

(* --- hashrand ----------------------------------------------------------- *)

let hashrand_deterministic () =
  Alcotest.(check int) "stable" (Hashrand.hash ~seed:1 [ 2; 3 ])
    (Hashrand.hash ~seed:1 [ 2; 3 ]);
  Alcotest.(check bool) "seed matters" true
    (Hashrand.hash ~seed:1 [ 2; 3 ] <> Hashrand.hash ~seed:2 [ 2; 3 ]);
  Alcotest.(check bool) "coords matter" true
    (Hashrand.hash ~seed:1 [ 2; 3 ] <> Hashrand.hash ~seed:1 [ 3; 2 ])

let prop_u01_range =
  QCheck.Test.make ~name:"u01 in [0,1)" ~count:1000
    QCheck.(pair int (small_list int))
    (fun (seed, coords) ->
      let u = Hashrand.u01 ~seed coords in
      u >= 0. && u < 1.)

let prop_bits_range =
  QCheck.Test.make ~name:"bits within width" ~count:500
    QCheck.(pair int (int_range 1 32))
    (fun (seed, width) ->
      let v = Hashrand.bits ~seed [ 7 ] ~width in
      v >= 0 && v < 1 lsl width)

(* The fixed-arity draws the glitcher uses per cycle are the list draws,
   unrolled: same hash for any seed and coordinates, negative ones
   included, and the same uniform float and bit field from it. *)
let prop_fixed_arity_draws =
  QCheck.Test.make ~name:"fixed-arity draws = list hash" ~count:1000
    QCheck.(pair int (array_of_size (Gen.return 5) int))
    (fun (seed, c) ->
      let h2 = Hashrand.hash2 ~seed c.(0) c.(1)
      and h4 = Hashrand.hash4 ~seed c.(0) c.(1) c.(2) c.(3)
      and h5 = Hashrand.hash5 ~seed c.(0) c.(1) c.(2) c.(3) c.(4) in
      let list n = Array.to_list (Array.sub c 0 n) in
      h2 = Hashrand.hash ~seed (list 2)
      && h4 = Hashrand.hash ~seed (list 4)
      && h5 = Hashrand.hash ~seed (list 5)
      && Hashrand.to_u01 h5 = Hashrand.u01 ~seed (list 5)
      && Hashrand.to_bits h4 ~width:7 = Hashrand.bits ~seed (list 4) ~width:7)

(* The per-entry draw context folds (seed, salt, width, offset) once
   and each draw folds the rest: a prefix draw must be the full draw for
   any coordinates, in any slot. *)
let prop_prefix_draws =
  QCheck.Test.make ~name:"prefix draw = hash4/hash5" ~count:1000
    QCheck.(triple int (int_bound 3) (array_of_size (Gen.return 5) int))
    (fun (seed, slot, c) ->
      let b = Bytes.create 32 in
      Hashrand.set_prefix b slot ~seed c.(0) c.(1) c.(2);
      Hashrand.prefixed4 b slot c.(3) = Hashrand.hash4 ~seed c.(0) c.(1) c.(2) c.(3)
      && Hashrand.prefixed5 b slot c.(3) c.(4)
         = Hashrand.hash5 ~seed c.(0) c.(1) c.(2) c.(3) c.(4))

(* Every draw compares integers, [h land u01_mask < threshold p], where
   the reference compares floats, [to_u01 h < p]. The two must agree for
   every probability the simulation draws against: each constant, and
   each gate [e *. f] over the 99 x 99 grid and every gate factor. They
   are checked at the edges of each threshold, [m = t - 1, t, t + 1]
   under a random h's high bits, and at the random h itself. *)
let draw_probabilities =
  lazy
    (let gated =
       List.concat_map
         (fun f ->
           List.init (99 * 99) (fun k ->
               Susceptibility.landscape ~width:((k / 99) - 49)
                 ~offset:((k mod 99) - 49)
               *. f))
         Susceptibility.gate_factors
     in
     Array.of_list
       (List.sort_uniq Float.compare (Susceptibility.draw_probabilities @ gated)))

let prop_threshold_exact =
  QCheck.Test.make ~name:"integer draw = float draw" ~count:200 QCheck.int
    (fun h ->
      let high = h land lnot Hashrand.u01_mask in
      Array.iter
        (fun p ->
          let t = Hashrand.threshold p in
          let agrees h =
            h land Hashrand.u01_mask < t = (Hashrand.to_u01 h < p)
          in
          let edge m = m < 0 || m > Hashrand.u01_mask || agrees (high lor m) in
          if not (agrees h && edge (t - 1) && edge t && edge (t + 1)) then
            QCheck.Test.fail_reportf "p = %h: threshold %d disagrees" p t)
        (Lazy.force draw_probabilities);
      true)

(* --- susceptibility -------------------------------------------------------- *)

(* The per-domain memo returns the direct computation's float, bit for
   bit, over the whole grid (twice, so the second pass reads every point
   back from the grid), and off the grid as well. *)
let landscape_memo_exact () =
  let same ~width ~offset =
    let bits f = Int64.bits_of_float (f ~width ~offset) in
    bits Susceptibility.landscape = bits Susceptibility.landscape_direct
  in
  for pass = 1 to 2 do
    for width = -49 to 49 do
      for offset = -49 to 49 do
        if not (same ~width ~offset) then
          Alcotest.failf "pass %d: memo differs at (%d, %d)" pass width offset
      done
    done
  done;
  List.iter
    (fun (width, offset) ->
      if not (same ~width ~offset) then
        Alcotest.failf "off-grid (%d, %d) differs" width offset)
    [ (50, 0); (0, -50); (-60, 12); (99, 99); (-49, 50) ]

let landscape_properties () =
  (* bounded, non-negative, and small on most of the plane *)
  let above_one = ref 0 and total = ref 0 in
  for w = -49 to 49 do
    for o = -49 to 49 do
      incr total;
      let e = Susceptibility.landscape ~width:w ~offset:o in
      Alcotest.(check bool) "non-negative" true (e >= 0.);
      if e > 1. then incr above_one
    done
  done;
  Alcotest.(check bool) "deterministic cores are rare" true
    (!above_one > 0 && !above_one < !total / 100)

let class_factors_ordered () =
  let load =
    Thumb.Instr.Mem_imm
      { load = true; byte = true; rd = Thumb.Reg.r3; rb = Thumb.Reg.r3; imm = 0 }
  in
  let cmp = Thumb.Instr.Imm (CMPi, Thumb.Reg.r3, 0) in
  let branch = Thumb.Instr.B_cond (EQ, -4) in
  let alu = Thumb.Instr.Imm (ADDi, Thumb.Reg.r3, 7) in
  let f = Susceptibility.class_factor in
  Alcotest.(check bool) "loads easiest (RQ4)" true
    (f load > f cmp && f load > f alu);
  Alcotest.(check bool) "branches glitchable" true (f branch > f alu);
  Alcotest.(check bool) "register ALU nearly immune" true (f alu < 0.2)

let corrupt_word_biased () =
  (* over many glitch points, 1->0 flips must dominate 0->1 flips *)
  let cleared = ref 0 and set = ref 0 in
  for point = 0 to 500 do
    let w = 0xD0F0 in
    let w' =
      Susceptibility.corrupt_word ~width:((point mod 99) - 49)
        ~offset:((point / 99) - 49) ~cycle:(point mod 7) w
    in
    cleared := !cleared + Glitch_emu.Bitmask.popcount (w land lnot w');
    set := !set + Glitch_emu.Bitmask.popcount (w' land lnot w)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "clears (%d) >> sets (%d)" !cleared !set)
    true
    (!cleared > 4 * !set)

let roll_deterministic_effect () =
  let instr = Thumb.Instr.B_cond (EQ, -4) in
  (* same point, different nonces: the effect kind never changes between
     firing attempts (only whether it fires) *)
  let kinds = Hashtbl.create 8 in
  let landscape = Susceptibility.landscape ~width:(-10) ~offset:4 in
  for nonce = 0 to 200 do
    match
      Susceptibility.roll ~sustained:false ~landscape ~width:(-10)
        ~offset:4 ~cycle:5 ~nonce ~instr ~sp:0x20003FE8
    with
    | Susceptibility.No_fault -> ()
    | effect -> Hashtbl.replace kinds (Fmt.str "%a" Susceptibility.pp_effect effect) ()
  done;
  Alcotest.(check bool) "at most one firing effect kind" true
    (Hashtbl.length kinds <= 1)

(* --- board ------------------------------------------------------------------ *)

let board_trigger_and_cycles () =
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  (match Board.run_plain ~max_cycles:200 board with
  | `Timeout -> () (* the unglitched guard loops forever *)
  | `Stopped s -> Alcotest.fail (Fmt.str "stopped: %a" Machine.Exec.pp_stop s));
  match Board.trigger_edges board with
  | [ edge ] -> Alcotest.(check bool) "trigger early" true (edge > 0 && edge < 30)
  | edges ->
    Alcotest.fail (Printf.sprintf "expected 1 trigger edge, got %d" (List.length edges))

(* [Board.run_plain] runs a whole tail under one handler and books each
   step's cycles before executing it; it must equal a [Board.step] loop
   with the same budget. Random programs raise GPIO trigger edges, spin
   in counted loops (taken and not-taken branches, a branch to the next
   instruction), read and write RAM, and end on a breakpoint, a bad
   read, a bad write, a bad fetch, an endless loop or the erased flash
   past the program; the budget cuts many of them short. Stop, cycle
   count, edge stamps and the whole state must agree. *)
let prop_plain_run_matches_step =
  let edge = "  movs r2, #0\n  str r2, [r1, #0]\n  movs r2, #1\n  str r2, [r1, #0]\n" in
  let prologue =
    "  movs r1, #0x48\n  lsls r1, r1, #24\n  adds r1, #0x28\n  movs r6, #0\n\
    \  mov r7, sp\n" ^ edge
  in
  let chunk k = function
    | 0 -> edge
    | 1 -> Printf.sprintf "  movs r0, #%d\nl%d:\n  subs r0, #1\n  bne l%d\n" (1 + (k mod 9)) k k
    | 2 -> "  ldrb r3, [r7, #7]\n  adds r3, #1\n  strb r3, [r7, #6]\n"
    | 3 -> Printf.sprintf "  cmp r3, #255\n  beq l%d\nl%d:\n" k k
    | _ -> "  push {r2, r3}\n  pop {r2, r3}\n"
  in
  let ending k = function
    | 0 -> "  bkpt #7\n"
    | 1 -> "  ldr r0, [r6, #0]\n"
    | 2 -> "  str r0, [r6, #4]\n"
    | 3 -> "  movs r5, #1\n  bx r5\n"
    | 4 -> Printf.sprintf "e%d:\n  b e%d\n" k k
    | _ -> ""
  in
  let program (chunks, last) =
    prologue
    ^ String.concat "" (List.mapi chunk chunks)
    ^ ending (List.length chunks) last
  in
  let stop_name = function
    | `Timeout -> "timeout"
    | `Stopped s -> Fmt.str "%a" Machine.Exec.pp_stop s
  in
  QCheck.Test.make ~name:"Board.run_plain = Board.step loop" ~count:300
    (QCheck.make
       ~print:(fun (body, budget) -> Printf.sprintf "budget %d:\n%s" budget (program body))
       QCheck.Gen.(
         pair
           (pair (list_size (int_bound 8) (int_bound 4)) (int_bound 5))
           (int_bound 400)))
    (fun (body, budget) ->
      let src = program body in
      let plain = Board.create (Board.Asm src) and stepped = Board.create (Board.Asm src) in
      let stop = Board.run_plain ~max_cycles:budget plain in
      let rec go () =
        if Board.cycles stepped >= budget then `Timeout
        else
          match Board.step stepped with
          | Machine.Exec.Running -> go ()
          | Machine.Exec.Stopped s -> `Stopped s
      in
      let expected = go () in
      if stop <> expected then
        QCheck.Test.fail_reportf "stop %s, step loop %s" (stop_name stop)
          (stop_name expected)
      else
        match Board_oracle.mismatch plain stepped with
        | None -> true
        | Some what -> QCheck.Test.fail_reportf "%s differ" what)

let board_reset_is_clean () =
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let (_ : [ `Stopped of Machine.Exec.stop | `Timeout ]) =
    Board.run_plain ~max_cycles:100 board
  in
  let c1 = Board.cycles board in
  Board.reset board;
  Alcotest.(check int) "cycles cleared" 0 (Board.cycles board);
  Alcotest.(check (list int)) "edges cleared" [] (Board.trigger_edges board);
  let (_ : [ `Stopped of Machine.Exec.stop | `Timeout ]) =
    Board.run_plain ~max_cycles:100 board
  in
  Alcotest.(check int) "deterministic rerun" c1 (Board.cycles board)

let board_double_loop_triggers_twice () =
  (* Force the value to change so both loops exit: run the while(a)
     double loop with a = 1; it spins in loop1 forever unglitched, so
     instead use skip faults via the glitcher at a known-hot point...
     simpler: check the while(!a) double program re-arms the trigger by
     glitching with a blanket schedule. *)
  let board = Board.create (Board.Asm (Attack.double_loop_program While_not_a)) in
  let (_ : [ `Stopped of Machine.Exec.stop | `Timeout ]) =
    Board.run_plain ~max_cycles:120 board
  in
  Alcotest.(check int) "one edge while stuck in loop1" 1
    (List.length (Board.trigger_edges board))

(* A linked image starts at its own stack top, the SP the exhaust leg
   (and the absint leg) start the same firmware with; the hand-written
   guard loops keep the paper's SP. *)
let board_stack_top () =
  let image =
    (Resistor.Driver.compile Resistor.Config.none Resistor.Firmware.guard_loop)
      .image
  in
  Alcotest.(check int) "image SP = spec_of_image's stack_top"
    (Exhaust.Campaign.spec_of_image image).stack_top
    (Board.reg (Board.create (Board.Image image)) 13);
  Alcotest.(check int) "asm SP is the paper's" 0x20003FE8
    (Board.reg (Board.create (Board.Asm (Attack.single_loop_program While_a))) 13)

let guard_programs_assemble () =
  List.iter
    (fun guard ->
      List.iter
        (fun src -> ignore (Thumb.Asm.assemble src))
        [ Attack.single_loop_program guard;
          Attack.double_loop_program guard;
          Attack.long_glitch_program guard ])
    Attack.all_guards

(* Every pc-relative load in the guard programs must hit a literal pool
   word holding one of the experiment's two constants — this pins the
   hand-computed [pc, #imm] offsets. *)
let literal_pool_offsets_correct () =
  let constants = [ 0xE7D25763; 0xD3B9AEC6 ] in
  List.iter
    (fun src ->
      let words = Array.of_list (Thumb.Asm.assemble_words src) in
      Array.iteri
        (fun i w ->
          match Thumb.Decode.instr w with
          | Thumb.Instr.Ldr_pc (_, imm) ->
            let target = (((2 * i) + 4) land lnot 3) + (4 * imm) in
            let idx = target / 2 in
            if idx + 1 >= Array.length words then
              Alcotest.fail "pool load out of program";
            let v = words.(idx) lor (words.(idx + 1) lsl 16) in
            Alcotest.(check bool)
              (Printf.sprintf "pool value 0x%08x at instr %d" v i)
              true (List.mem v constants)
          | _ -> ())
        words)
    [ Attack.single_loop_program While_ne_const;
      Attack.double_loop_program While_ne_const;
      Attack.long_glitch_program While_ne_const ]

(* --- glitcher ------------------------------------------------------------------ *)

let glitcher_deterministic () =
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let schedule = [ Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ] in
  let o1 = Glitcher.run ~max_cycles:200 ~nonce:3 board schedule in
  let c1 = Board.cycles board in
  let o2 = Glitcher.run ~max_cycles:200 ~nonce:3 board schedule in
  Alcotest.(check bool) "same stop" true (o1.stop = o2.stop);
  Alcotest.(check int) "same cycles" c1 o2.cycles

let glitcher_without_schedule_is_plain () =
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let obs = Glitcher.run ~max_cycles:200 board [] in
  Alcotest.(check bool) "loops forever" true (obs.stop = `Timeout);
  Alcotest.(check int) "nothing glitched" 0 obs.glitched_cycles

let forced_skip_escapes_loop () =
  (* Drive the board manually: skipping the BEQ must exit while(!a). *)
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let rec go budget =
    if budget = 0 then Alcotest.fail "never reached breakpoint"
    else
      let applied =
        match Board.peek board with
        | Ok (Thumb.Instr.B_cond (EQ, _)) -> Board.As_nop
        | Ok _ | Error _ -> Board.Normal
      in
      match Board.step ~applied board with
      | Machine.Exec.Running -> go (budget - 1)
      | Machine.Exec.Stopped (Machine.Exec.Breakpoint 0) ->
        Alcotest.(check int) "escape marker" 0xAA (Board.reg board 0)
      | Machine.Exec.Stopped s ->
        Alcotest.fail (Fmt.str "stopped: %a" Machine.Exec.pp_stop s)
  in
  go 200

let snapshot_restore_equivalence () =
  (* restoring a snapshot must reproduce a fresh deterministic run *)
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let schedule = [ Glitcher.single ~width:(-12) ~offset:8 ~ext_offset:3 ] in
  let o_fresh = Glitcher.run ~max_cycles:250 ~nonce:9 board schedule in
  let r3_fresh = Board.reg board 3 in
  (* snapshot a freshly reset board right after boot-to-trigger *)
  Board.reset board;
  ignore (Board.run_until_trigger ~max_cycles:100 board);
  let snap = Board.snapshot board in
  let o_restored = Glitcher.run ~max_cycles:250 ~nonce:9 ~from:snap board schedule in
  Alcotest.(check bool) "same stop" true (o_fresh.stop = o_restored.stop);
  Alcotest.(check int) "same comparator" r3_fresh (Board.reg board 3)

let instr_duration_matches_execution () =
  (* instr_duration must predict exactly what execute-then-count books:
     step through two full guard iterations comparing prediction and
     actual cycle delta at every instruction. *)
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  for step = 1 to 40 do
    match Board.peek board with
    | Error _ -> ()
    | Ok instr ->
      let predicted = Board.instr_duration board instr in
      let before = Board.cycles board in
      (match Board.step board with
      | Machine.Exec.Running ->
        Alcotest.(check int)
          (Fmt.str "step %d: %a" step Thumb.Instr.pp instr)
          predicted
          (Board.cycles board - before)
      | Machine.Exec.Stopped _ -> ())
  done

(* Replay from a trigger snapshot must be indistinguishable from a full
   power-on reset, with and without the dead-schedule baseline: the boot
   is deterministic and no window can arm before the first edge exists.
   Random schedules over the double-loop program exercise multi-trigger
   and repeat > 1 cases. *)
let prop_replay_equiv_reset =
  let param =
    QCheck.Gen.(
      map
        (fun (width, offset, ext_offset, (repeat, trigger_index)) ->
          { Glitcher.width; offset; ext_offset; repeat; trigger_index })
        (tup4 (int_range (-49) 49) (int_range (-49) 49) (int_range 0 12)
           (tup2 (int_range 1 6) (int_range 0 1))))
  in
  let arb =
    QCheck.make
      ~print:(fun (ps, nonce) ->
        String.concat ";"
          (Printf.sprintf "nonce=%d" nonce
          :: List.map
               (fun p ->
                 Printf.sprintf "{w=%d;o=%d;ext=%d;rep=%d;trig=%d}"
                   p.Glitcher.width p.Glitcher.offset p.Glitcher.ext_offset
                   p.Glitcher.repeat p.Glitcher.trigger_index)
               ps))
      QCheck.Gen.(tup2 (list_size (int_range 1 3) param) (int_range 0 5))
  in
  let board = Board.create (Board.Asm (Attack.double_loop_program While_not_a)) in
  ignore (Board.run_until_trigger ~max_cycles:500 board);
  let snap = Board.snapshot board in
  let baseline = Glitcher.baseline ~max_cycles:500 board ~from:snap in
  QCheck.Test.make ~name:"run ~from:snap = reset-then-run (± baseline)" ~count:300
    arb
    (fun (schedule, nonce) ->
      let post b = List.init 16 (Board.reg b) in
      let o_reset = Glitcher.run ~max_cycles:500 ~nonce board schedule in
      let r_reset = post board in
      let o_snap = Glitcher.run ~max_cycles:500 ~nonce ~from:snap board schedule in
      let r_snap = post board in
      let o_base =
        Glitcher.run ~max_cycles:500 ~nonce ~from:snap ~baseline board schedule
      in
      let r_base = post board in
      let same (a : Glitcher.observation) (b : Glitcher.observation) =
        a.stop = b.stop && a.cycles = b.cycles && a.fired = b.fired
        && a.glitched_cycles = b.glitched_cycles
      in
      same o_reset o_snap && same o_reset o_base && r_reset = r_snap
      && r_reset = r_base)

(* The allocation-free glitcher against the reference loop it replaced:
   for random one- and two-entry schedules on the single, double and
   long programs of all three guards, an attempt on a sealed rig (with
   its baseline cutoff and plain tail) must match the reference loop on
   a never-sealed board, in the observation and in the whole post-mortem
   state. Half of the (width, offset) points are drawn where the
   landscape is hot, so faults, escapes and second-edge windows after a
   fault are all exercised. Half of the attempts have nonce 0, so the
   one-point ones among them take the sweeps' entry point
   ([Board_oracle.check_attempt]). *)
let prop_glitcher_matches_oracle =
  let programs =
    List.concat_map
      (fun guard ->
        [ (Attack.single_loop_program guard, 300);
          (Attack.double_loop_program guard, 500);
          (Attack.long_glitch_program guard, 800) ])
      Attack.all_guards
  in
  let rigs =
    Array.of_list
      (List.map
         (fun (src, max_cycles) ->
           lazy
             ( Board_oracle.oracle ~max_cycles (Board.Asm src),
               Attack.rig_of_boot (Attack.boot_once ~max_cycles src) ))
         programs)
  in
  let hot =
    Array.of_list
      (List.concat_map
         (fun width ->
           List.filter_map
             (fun offset ->
               if Susceptibility.landscape ~width ~offset > 0.1 then
                 Some (width, offset)
               else None)
             (List.init 99 (fun o -> o - 49)))
         (List.init 99 (fun w -> w - 49)))
  in
  let point =
    QCheck.Gen.(
      oneof
        [ pair (int_range (-49) 49) (int_range (-49) 49);
          map (fun i -> hot.(i)) (int_bound (Array.length hot - 1)) ])
  in
  let param =
    QCheck.Gen.(
      map
        (fun ((width, offset), ext_offset, repeat, trigger_index) ->
          { Glitcher.width; offset; ext_offset; repeat; trigger_index })
        (quad point (int_range 0 12) (int_range 1 21) (int_range 0 1)))
  in
  let print (program, schedule, nonce) =
    String.concat ";"
      (Printf.sprintf "program=%d nonce=%d" program nonce
      :: List.map
           (fun p ->
             Printf.sprintf "{w=%d;o=%d;ext=%d;rep=%d;trig=%d}"
               p.Glitcher.width p.Glitcher.offset p.Glitcher.ext_offset
               p.Glitcher.repeat p.Glitcher.trigger_index)
           schedule)
  in
  QCheck.Test.make ~name:"sealed rig = reference glitcher (whole state)"
    ~count:2000
    (QCheck.make ~print
       QCheck.Gen.(
         triple
           (int_bound (Array.length rigs - 1))
           (list_size (int_range 1 2) param)
           (oneof [ return 0; int_bound 1_000_000 ])))
    (fun (program, schedule, nonce) ->
      let o, rig = Lazy.force rigs.(program) in
      match Board_oracle.check_attempt ~nonce o rig schedule with
      | _, None -> true
      | _, Some what -> QCheck.Test.fail_reportf "%s differs" what)

(* The sweep kernel end-to-end: a strided (width, offset) sub-plane of
   the Table I sweep, reset-per-attempt vs the kernel's replay path,
   must classify every attempt identically. *)
let sweep_replay_differential () =
  let rig =
    Attack.rig_of_boot (Attack.boot_once (Attack.single_loop_program While_not_a))
  in
  let fresh = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let width = ref (-49) in
  while !width <= 49 do
    let offset = ref (-49) in
    while !offset <= 49 do
      let schedule =
        [ Glitcher.single ~width:!width ~offset:!offset ~ext_offset:5 ]
      in
      let o_reset = Glitcher.run ~max_cycles:300 fresh schedule in
      let o_rig = Attack.attempt rig schedule in
      if
        o_reset.Glitcher.stop <> o_rig.Glitcher.stop
        || o_reset.Glitcher.cycles <> o_rig.Glitcher.cycles
        || Attack.escaped fresh o_reset <> Attack.escaped (Attack.rig_board rig) o_rig
        || Board.reg fresh 3 <> Board.reg (Attack.rig_board rig) 3
      then
        Alcotest.failf "diverged at width=%d offset=%d" !width !offset;
      offset := !offset + 7
    done;
    width := !width + 7
  done

(* The dead-schedule cutoff on linked firmware. On the all-but-delay
   guard-loop image, with Table VI's budgets, the kernel's attempt
   (baseline armed), a replay from the trigger snapshot without a
   baseline, and a power-on reset must agree on the observation and on
   the post-mortem attack-marker and detection globals, for a strided
   sample of single, long and windowed schedules. *)
let image_cutoff_differential () =
  let image =
    (Resistor.Driver.compile
       (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
       Resistor.Firmware.guard_loop)
      .image
  in
  let rig =
    Attack.rig_of_boot
      (Attack.boot ~max_cycles:2_000_000 ~after_trigger:4_000 (Board.Image image))
  in
  let board = Board.create (Board.Image image) in
  ignore (Board.run_until_trigger ~max_cycles:2_000_000 board);
  let snap = Board.snapshot board in
  let boot_cycles = Board.cycles board in
  let max_cycles = boot_cycles + 4_000 in
  let cut = ref 0 and detected = ref 0 in
  let post b (o : Glitcher.observation) =
    ( (o.stop, o.cycles, o.fired, o.glitched_cycles),
      Board.read_global b Resistor.Firmware.attack_marker_global,
      Resistor.Detect.detections (Board.read_global b) )
  in
  let windows =
    List.init 11 (fun c -> (c, 1))
    @ List.init 10 (fun i -> (0, 10 * (i + 1)))
    @ List.init 11 (fun s -> (s, 10))
  in
  List.iter
    (fun (ext_offset, repeat) ->
      let width = ref (-49) in
      while !width <= 49 do
        let offset = ref (-49) in
        while !offset <= 49 do
          let schedule =
            [ Glitcher.with_repeat
                (Glitcher.single ~width:!width ~offset:!offset ~ext_offset)
                repeat ]
          in
          let o_kernel = Attack.attempt rig schedule in
          let kernel = post (Attack.rig_board rig) o_kernel in
          let snap_run =
            post board (Glitcher.run ~max_cycles ~from:snap board schedule)
          in
          let reset_run = post board (Glitcher.run ~max_cycles board schedule) in
          if kernel <> snap_run || kernel <> reset_run then
            Alcotest.failf "diverged at ext=%d repeat=%d width=%d offset=%d"
              ext_offset repeat !width !offset;
          let _, _, detections = kernel in
          if detections > 0 then incr detected;
          (* past the boot replay: the baseline cut the attempt short *)
          if o_kernel.replayed_cycles > boot_cycles then incr cut;
          offset := !offset + 14
        done;
        width := !width + 14
      done)
    windows;
  Alcotest.(check bool) "cutoff taken" true (!cut > 0);
  Alcotest.(check bool) (Printf.sprintf "detections sampled (%d)" !detected)
    true (!detected > 0)

(* The journaled rig against the whole-image oracle: for a strided
   sample of Table I, II, III and VI schedules, the rig's board after
   each attempt must equal, in full, a never-sealed board restored from
   the same snapshot and emulated to the end. A journal entry the rewind
   or the cutoff missed, anywhere in flash or SRAM, shows up here. *)
let rig_full_state_differential () =
  let sample ~name ~step (o : Board_oracle.oracle) rig schedules =
    let fired = ref 0 and cut = ref 0 and n = ref 0 in
    let trigger_cycle = Board.cycles o.board in
    List.iter
      (fun schedule_at ->
        let width = ref (-49) in
        while !width <= 49 do
          let offset = ref (-49) in
          while !offset <= 49 do
            let schedule = schedule_at ~width:!width ~offset:!offset in
            let obs, mismatch = Board_oracle.check_attempt o rig schedule in
            Option.iter
              (fun what ->
                Alcotest.failf
                  "%s: %s differs at schedule #%d width=%d offset=%d" name what
                  !n !width !offset)
              mismatch;
            incr n;
            if obs.fired > 0 then incr fired;
            if obs.replayed_cycles > trigger_cycle then incr cut;
            offset := !offset + step
          done;
          width := !width + step
        done)
      schedules;
    Alcotest.(check bool)
      (Printf.sprintf "%s: faults (%d) and cutoffs (%d) sampled" name !fired
         !cut)
      true
      (!fired > 0 && !cut > 0)
  in
  let table program ~max_cycles ~name schedules =
    sample ~name ~step:9
      (Board_oracle.oracle ~max_cycles (Board.Asm program))
      (Attack.rig_of_boot (Attack.boot_once ~max_cycles program))
      schedules
  in
  let cycles = List.init Attack.loop_cycles Fun.id in
  table (Attack.single_loop_program While_not_a) ~max_cycles:300 ~name:"table I"
    (List.map
       (fun c ~width ~offset ->
         [ Glitcher.single ~width ~offset ~ext_offset:c ])
       cycles);
  table (Attack.double_loop_program While_not_a) ~max_cycles:500 ~name:"table II"
    (List.map
       (fun c ~width ~offset ->
         let p = Glitcher.single ~width ~offset ~ext_offset:c in
         [ p; { p with trigger_index = 1 } ])
       cycles);
  table (Attack.long_glitch_program While_not_a) ~max_cycles:800 ~name:"table III"
    (List.init 11 (fun i ~width ~offset ->
         [ Glitcher.with_repeat
             (Glitcher.single ~width ~offset ~ext_offset:0)
             (i + 11) ]));
  let image =
    (Resistor.Driver.compile
       (Resistor.Config.all_but_delay ~sensitive:[ "a" ] ())
       Resistor.Firmware.guard_loop)
      .image
  in
  let program = Board.Image image in
  sample ~name:"table VI" ~step:14
    (Board_oracle.oracle ~max_cycles:2_000_000 ~after_trigger:4_000 program)
    (Attack.rig_of_boot
       (Attack.boot ~max_cycles:2_000_000 ~after_trigger:4_000 program))
    (List.map
       (fun (ext_offset, repeat) ~width ~offset ->
         [ Glitcher.with_repeat
             (Glitcher.single ~width ~offset ~ext_offset)
             repeat ])
       [ (0, 1); (5, 1); (10, 1); (0, 10); (0, 50); (0, 100); (5, 10); (10, 10) ])

(* The cutoff must write the baseline's whole write set: a byte the
   unglitched run stored and later stored back to its trigger-time
   value is stale on a board cut off between the two stores. *)
let writeback_cutoff_regression () =
  let tail, mismatch = Board_oracle.writeback_cutoff () in
  Alcotest.(check bool)
    (Printf.sprintf "cutoff served %d cycles" tail)
    true (tail > 0);
  Alcotest.(check (option string)) "post-mortem state = oracle" None mismatch

(* A reset or a power-on run on a sealed board must not journal the
   image load, and the next rewind must still land on the trigger
   state; the journal then holds one attempt's writes again. *)
let rewind_after_reset () =
  let program = Board.Asm Board_oracle.writeback_program in
  let o = Board_oracle.oracle ~max_cycles:300 program in
  let board = Board.create program in
  Board.seal board o.snap;
  let schedule = [ Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:4 ] in
  let attempt () =
    ignore (Glitcher.run ~max_cycles:300 ~nonce:1 ~from:o.snap board schedule)
  in
  attempt ();
  let one_attempt = Board.journal_length board in
  let rewound_to_trigger what =
    Board.rewind board o.snap;
    Alcotest.(check (option string)) (what ^ ": rewound to the trigger") None
      (Board_oracle.mismatch board o.board);
    attempt ();
    Alcotest.(check int) (what ^ ": journal holds one attempt") one_attempt
      (Board.journal_length board)
  in
  Board.reset board;
  Alcotest.(check int) "reset journals nothing" 0 (Board.journal_length board);
  rewound_to_trigger "after reset";
  ignore (Glitcher.run ~max_cycles:300 board schedule);
  Alcotest.(check int) "power-on run journals nothing" 0
    (Board.journal_length board);
  rewound_to_trigger "after a power-on run";
  Board.restore board o.snap;
  rewound_to_trigger "after a whole-image restore";
  Alcotest.(check bool)
    (Printf.sprintf "one attempt's journal (%d) is far below the image"
       one_attempt)
    true
    (one_attempt > 0 && one_attempt < 1024)

(* The board leg's allocation, a count that does not depend on the host:
   one Table I cycle, 9,801 attempts through the sweeps' entry point
   (one schedule shape reused, no optional argument), may allocate
   little more than each attempt's observation. It measured 9.2 words
   per attempt; the bound is that plus 25%. A warm-up sweep first fills
   the landscape memo and the per-domain attempt state. *)
let attempt_allocation () =
  let rig =
    Attack.rig_of_boot
      (Attack.boot_once (Attack.single_loop_program While_not_a))
  in
  let shape = [| Glitcher.single ~width:0 ~offset:0 ~ext_offset:2 |] in
  let sweep () =
    for width = -49 to 49 do
      for offset = -49 to 49 do
        ignore (Attack.attempt_point rig shape ~width ~offset)
      done
    done
  in
  sweep ();
  let before = Gc.minor_words () in
  sweep ();
  let per_attempt = (Gc.minor_words () -. before) /. 9801. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per attempt <= 11.5" per_attempt)
    true (per_attempt <= 11.5)

(* Board.delta against the journal scan it replaced. A sealed board
   runs a random list of byte stores into eight bytes of its stack fill
   (about half of them storing the sealed byte back) under random
   steps, rewinds and resets. A shadow memory holding the same eight
   sealed bytes takes the same journaled stores, and after every op the
   board's write set must equal [Board_oracle.journal_delta] over the
   shadow: every address written since the seal, once, also when its
   byte is back at the sealed value. After a reset the board has no
   live journal, and [delta] must refuse. *)
let prop_delta_matches_journal_scan =
  (* the stack fill under [sp - 32], from [sp - 32] up *)
  let sealed = [| 0x55; 0x00; 0x68; 0xFF; 0x08; 0x00; 0x55; 0x01 |] in
  let base = 0x20003FE8 - 32 in
  let flash_base = Machine.Loader.stm32_layout.flash_base in
  let prologue =
    [ "movs r1, #0x48"; "lsls r1, r1, #24"; "adds r1, #0x28"; "movs r2, #1";
      "str r2, [r1, #0]"; "mov r3, sp"; "subs r3, #32" ]
  in
  let program stores =
    String.concat "\n"
      (prologue
      @ List.concat_map
          (fun (off, v) ->
            [ Printf.sprintf "movs r2, #%d" v;
              Printf.sprintf "strb r2, [r3, #%d]" off ])
          stores
      @ [ "bkpt #0" ])
  in
  let store =
    QCheck.Gen.(
      int_bound 7 >>= fun off ->
      map (fun v -> (off, v)) (oneof [ return sealed.(off); int_bound 255 ]))
  in
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map (fun k -> `Step k) (int_range 1 4));
          (2, return `Rewind);
          (1, return `Reset) ])
  in
  let print (stores, ops) =
    String.concat " "
      (List.map (fun (off, v) -> Printf.sprintf "[%d]=%d" off v) stores
      @ "|"
        :: List.map
             (function
               | `Step k -> Printf.sprintf "step%d" k
               | `Rewind -> "rewind"
               | `Reset -> "reset")
             ops)
  in
  QCheck.Test.make ~name:"Board.delta = journal scan" ~count:1000
    (QCheck.make ~print
       QCheck.Gen.(
         pair (list_size (int_range 1 12) store) (list_size (int_range 1 30) op)))
    (fun (stores, ops) ->
      let stores_a = Array.of_list stores in
      let board = Board.create (Board.Asm (program stores)) in
      if not (Board.run_until_trigger ~max_cycles:300 board) then
        QCheck.Test.fail_report "never triggered";
      let snap = Board.snapshot board in
      Board.seal board snap;
      let shadow = Machine.Memory.create () in
      Machine.Memory.map shadow ~addr:base ~size:8;
      let journal = ref None in
      let reseal () =
        Array.iteri (fun i b -> Machine.Memory.write_u8_exn shadow (base + i) b)
          sealed;
        let j = Machine.Memory.journal_create () in
        Machine.Memory.attach_journal shadow j;
        journal := Some j
      in
      reseal ();
      (* store [i]'s [strb] is instruction [List.length prologue + 2i + 1] *)
      let step () =
        let i = ((Board.pc board - flash_base) / 2) - List.length prologue in
        match Board.step board with
        | Machine.Exec.Running when i >= 0 && i land 1 = 1 && !journal <> None ->
          let off, v = stores_a.(i / 2) in
          Machine.Memory.write_u8_exn shadow (base + off) v
        | Machine.Exec.Running | Machine.Exec.Stopped _ -> ()
      in
      let agrees () =
        match !journal with
        | Some j ->
          Board.written (Board.delta board) = Board_oracle.journal_delta shadow j
        | None -> (
          match Board.delta board with
          | _ -> false
          | exception Invalid_argument _ -> true)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Step k -> for _ = 1 to k do step () done
          | `Rewind ->
            Board.rewind board snap;
            (match !journal with
            | Some j -> Machine.Memory.undo_to shadow j 0
            | None -> reseal ())
          | `Reset ->
            Board.reset board;
            Machine.Memory.detach_journal shadow;
            journal := None);
          agrees ()
          || QCheck.Test.fail_reportf "write sets differ after %s"
               (print ([], [ op ])))
        ops)

let tie_break_uses_absolute_cycles () =
  (* Two windows overlap the same instruction: window [b] (trigger 0,
     far ext_offset) opens at absolute cycle 100, window [a] (trigger 1,
     near ext_offset) at 101. The glitch must resolve to [b], the
     earlier absolute cycle. The pre-fix code compared cycles relative
     to each window's own trigger edge (1 < 90) and picked [a]. *)
  let a =
    { (Glitcher.single ~width:0 ~offset:0 ~ext_offset:1) with trigger_index = 1 }
  in
  let b = Glitcher.single ~width:0 ~offset:0 ~ext_offset:90 in
  let edges = [ 10; 100 ] in
  (match Glitcher.active_window [ a; b ] edges ~start:100 ~duration:3 with
  | Some (p, rel) ->
    Alcotest.(check int) "earliest absolute window wins" 90 p.Glitcher.ext_offset;
    Alcotest.(check int) "relative cycle vs its own edge" 90 rel
  | None -> Alcotest.fail "expected an overlapping window");
  (* sanity: with the roles swapped, the trigger-1 window wins *)
  let a' = { a with ext_offset = 0 } in
  match Glitcher.active_window [ a'; b ] edges ~start:100 ~duration:3 with
  | Some (p, _) ->
    Alcotest.(check int) "trigger-1 window at cycle 100 wins" 1
      p.Glitcher.trigger_index
  | None -> Alcotest.fail "expected an overlapping window"

let overlap_uses_actual_duration () =
  (* A not-taken branch occupies 1 cycle, but the pre-fix overlap test
     assumed the taken duration (3), so a 1-cycle window aimed past the
     branch also matched the branch's two phantom cycles. Layout (cycle
     stamps relative to the trigger edge): CMP at +0, BNE (not taken)
     at +1, BKPT at +2, and nothing ever runs at +3. *)
  let board =
    Board.create
      (Board.Asm
         {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  movs r2, #1
  str  r2, [r1, #0]
  cmp  r2, #1
  bne  away
  bkpt #0
away:
  movs r0, #0x22
  bkpt #0
|})
  in
  let glitched ext_offset =
    let obs =
      Glitcher.run ~max_cycles:100 board
        [ Glitcher.single ~width:(-10) ~offset:5 ~ext_offset ]
    in
    obs.Glitcher.glitched_cycles
  in
  Alcotest.(check int) "window on the branch's real cycle" 1 (glitched 1);
  (* pre-fix: 2 — the window matched both the BKPT and the branch's
     phantom second cycle *)
  Alcotest.(check int) "window past the branch hits one instruction" 1
    (glitched 2);
  (* pre-fix: 1 — the window matched the branch's phantom third cycle,
     a cycle that never elapses *)
  Alcotest.(check int) "window on a cycle that never elapses" 0 (glitched 3)

let second_trigger_schedules () =
  (* a schedule armed on trigger 1 must not fire while only trigger 0
     has occurred *)
  let board = Board.create (Board.Asm (Attack.double_loop_program While_not_a)) in
  let late =
    [ { (Glitcher.single ~width:(-10) ~offset:5 ~ext_offset:2) with
        trigger_index = 1 } ]
  in
  let obs = Glitcher.run ~max_cycles:250 board late in
  (* stuck in loop1 forever: the second trigger never arrives *)
  Alcotest.(check bool) "timeout in loop1" true (obs.stop = `Timeout);
  Alcotest.(check int) "no glitched cycles" 0 obs.glitched_cycles

let loop_takes_eight_cycles () =
  (* the paper's guard loops are 8 cycles per iteration on the M0; the
     board's cycle accounting must agree, or every ext_offset in
     Tables I-III would target the wrong instruction *)
  let board = Board.create (Board.Asm (Attack.single_loop_program While_not_a)) in
  let (_ : [ `Stopped of Machine.Exec.stop | `Timeout ]) =
    Board.run_plain ~max_cycles:200 board
  in
  match Board.trigger_edges board with
  | [ edge ] ->
    (* cycles after the trigger must be a multiple of the loop period *)
    let after = 200 - edge in
    let remainder = after mod Attack.loop_cycles in
    (* the run stops mid-loop at the cap; simulate exactly N loops by
       measuring pc recurrence instead: step until pc repeats twice *)
    ignore remainder;
    Board.reset board;
    ignore (Board.run_until_trigger ~max_cycles:100 board);
    let start_pc = ref None in
    let c0 = ref 0 and c1 = ref 0 in
    (try
       for _ = 1 to 64 do
         let pc = Board.pc board in
         (match !start_pc with
         | None ->
           start_pc := Some pc;
           c0 := Board.cycles board
         | Some p when p = pc && !c1 = 0 && Board.cycles board > !c0 ->
           c1 := Board.cycles board;
           raise Exit
         | Some _ -> ());
         ignore (Board.step board)
       done
     with Exit -> ());
    Alcotest.(check int) "8-cycle loop" Attack.loop_cycles (!c1 - !c0)
  | _ -> Alcotest.fail "expected one trigger edge"

(* --- paper-shape assertions (slow) --------------------------------------------- *)

(* Each no-pool (table, guard) run is computed at most once per process
   and shared by the shape, golden and parity tests. *)
let per_guard run =
  let tables =
    List.map
      (fun g -> (g, lazy (run g)))
      Attack.[ While_not_a; While_a; While_ne_const ]
  in
  fun g -> Lazy.force (List.assoc g tables)

let table1 = per_guard (fun g -> Attack.run_table1 g)
let table2 = per_guard (fun g -> Attack.run_table2 g)
let table3 = per_guard (fun g -> Attack.run_table3 g)

let table1_shape () =
  let not_a = table1 While_not_a in
  let a = table1 While_a in
  let total (t : Attack.table1) =
    Array.fold_left (fun acc (c : Attack.cycle_stats) -> acc + c.successes) 0
      t.per_cycle
  in
  let t_not_a = total not_a and t_a = total a in
  Alcotest.(check bool)
    (Printf.sprintf "while(!a)=%d more glitchable than while(a)=%d" t_not_a t_a)
    true (t_not_a > t_a);
  (* overall success rate in the sub-percent regime the paper reports *)
  let rate = 100. *. float_of_int t_not_a /. float_of_int (8 * 9801) in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f%% in [0.2, 2.0]" rate)
    true
    (rate > 0.2 && rate < 2.0);
  (* successes exist at late (compare/branch) cycles *)
  Alcotest.(check bool) "branch cycles glitchable" true
    (not_a.per_cycle.(5).successes > 0 || not_a.per_cycle.(6).successes > 0)

let table2_partial_exceeds_full () =
  let t = table2 While_not_a in
  let partial = Array.fold_left ( + ) 0 t.partial in
  let full = Array.fold_left ( + ) 0 t.full in
  Alcotest.(check bool)
    (Printf.sprintf "partial %d > full %d (multi-glitch harder)" partial full)
    true
    (partial > 2 * full && full > 0)

(* Reproducibility pin: the experiments are fully deterministic, so the
   default-seed totals are exact. If the fault-model calibration changes
   intentionally, update these numbers AND the tables in EXPERIMENTS.md. *)
let table1_golden_totals () =
  let total guard =
    let t = table1 guard in
    Array.fold_left (fun acc (c : Attack.cycle_stats) -> acc + c.successes) 0
      t.per_cycle
  in
  Alcotest.(check int) "while(!a)" 460 (total While_not_a);
  Alcotest.(check int) "while(a)" 315 (total While_a);
  Alcotest.(check int) "while(a!=K)" 260 (total While_ne_const);
  (* the plain tails' share of while(!a)'s emulated cycles *)
  Alcotest.(check int) "while(!a) tail cycles" 56827
    (table1 While_not_a).sweep1.tail_cycles

(* The window-duration and tie-break fixes turn out to be latent for all
   three tables, so these goldens match the pre-fix counts exactly: the
   guard loops spin with their branches TAKEN (a not-taken branch only
   appears after a successful glitch, once the armed window is already
   in the past), and Table II's two trigger edges sit a full loop apart,
   so no single instruction can overlap windows of both edges. The
   replay kernel is bit-identical by construction. Both claims are
   enforced by the differential/property tests above; these goldens pin
   the absolute numbers for EXPERIMENTS.md. *)
let table2_golden_totals () =
  let totals guard =
    let t = table2 guard in
    (Array.fold_left ( + ) 0 t.partial, Array.fold_left ( + ) 0 t.full)
  in
  Alcotest.(check (pair int int)) "while(!a)" (384, 91) (totals While_not_a);
  Alcotest.(check (pair int int)) "while(a)" (278, 53) (totals While_a);
  Alcotest.(check (pair int int)) "while(a!=K)" (221, 44) (totals While_ne_const)

let table3_golden_rows () =
  let t = table3 While_not_a in
  Alcotest.(check int) "attempts per window" 9801 t.attempts_per_window;
  Alcotest.(check int) "total" 249
    (List.fold_left (fun acc (_, s) -> acc + s) 0 t.windows);
  (* the first and last rows, pinned exactly *)
  Alcotest.(check int) "0-10" 13 (List.assoc 10 t.windows);
  Alcotest.(check int) "0-20" 34 (List.assoc 20 t.windows)

(* Tables I-III drain their items through the same pool path at every
   job count; a three-worker pool must reproduce the caller-only run. *)
let tables_jobs_parity () =
  let guard = Attack.While_not_a in
  let t1 = table1 guard
  and t2 = table2 guard
  and t3 = table3 guard in
  Runtime.Pool.with_pool ~jobs:3 (fun pool ->
      let p1 = Attack.run_table1 ~pool guard in
      Alcotest.(check bool) "table 1 per_cycle" true (t1.per_cycle = p1.per_cycle);
      let p2 = Attack.run_table2 ~pool guard in
      Alcotest.(check (array int)) "table 2 partial" t2.partial p2.partial;
      Alcotest.(check (array int)) "table 2 full" t2.full p2.full;
      let p3 = Attack.run_table3 ~pool guard in
      Alcotest.(check (list (pair int int))) "table 3 windows" t3.windows p3.windows)

let tuner_finds_reliable_params () =
  let r = Tuner.search While_not_a in
  (match r.found with
  | Some (w, o, cycle) ->
    Alcotest.(check bool) "params in range" true
      (w >= -49 && w <= 49 && o >= -49 && o <= 49 && cycle >= 0 && cycle < 8);
    (* re-validate with fresh attempt noise: like the paper's "10 out
       of 10", the tuned point must be highly reliable, though attempt
       noise means a fresh batch can drop an attempt or two *)
    let board =
      Board.create (Board.Asm (Attack.single_loop_program While_not_a))
    in
    let ok = ref 0 in
    for nonce = 100 to 109 do
      let obs =
        Glitcher.run ~max_cycles:300 ~nonce board
          [ Glitcher.single ~width:w ~offset:o ~ext_offset:cycle ]
      in
      if Attack.escaped board obs then incr ok
    done;
    Alcotest.(check bool)
      (Printf.sprintf "reliable (%d/10 on fresh attempts)" !ok)
      true (!ok >= 7)
  | None -> Alcotest.fail "tuner found no 100% parameters");
  Alcotest.(check bool) "search did work" true (r.attempts > 1000)

let () =
  let props =
    List.map Qseed.to_alcotest
      [ prop_u01_range; prop_bits_range; prop_fixed_arity_draws;
        prop_prefix_draws; prop_threshold_exact ]
  in
  Alcotest.run "hw"
    [ ("hashrand",
       Alcotest.test_case "deterministic" `Quick hashrand_deterministic :: props);
      ("susceptibility",
       [ Alcotest.test_case "landscape" `Quick landscape_properties;
         Alcotest.test_case "landscape memo = direct" `Quick landscape_memo_exact;
         Alcotest.test_case "class factors (RQ4)" `Quick class_factors_ordered;
         Alcotest.test_case "1->0 bias" `Quick corrupt_word_biased;
         Alcotest.test_case "deterministic effects" `Quick roll_deterministic_effect ]);
      ("board",
       [ Alcotest.test_case "trigger and cycles" `Quick board_trigger_and_cycles;
         Alcotest.test_case "reset" `Quick board_reset_is_clean;
         Alcotest.test_case "double loop trigger" `Quick board_double_loop_triggers_twice;
         Alcotest.test_case "stack top" `Quick board_stack_top;
         Alcotest.test_case "guard programs assemble" `Quick guard_programs_assemble;
         Alcotest.test_case "literal pools correct" `Quick literal_pool_offsets_correct;
         Qseed.to_alcotest prop_plain_run_matches_step ]);
      ("glitcher",
       [ Alcotest.test_case "deterministic" `Quick glitcher_deterministic;
         Alcotest.test_case "no schedule = plain run" `Quick
           glitcher_without_schedule_is_plain;
         Alcotest.test_case "forced skip escapes" `Quick forced_skip_escapes_loop;
         Alcotest.test_case "snapshot/restore" `Quick snapshot_restore_equivalence;
         Alcotest.test_case "instr duration" `Quick instr_duration_matches_execution;
         Qseed.to_alcotest prop_replay_equiv_reset;
         Qseed.to_alcotest prop_glitcher_matches_oracle;
         Alcotest.test_case "sweep replay differential" `Quick
           sweep_replay_differential;
         Alcotest.test_case "tie-break absolute" `Quick
           tie_break_uses_absolute_cycles;
         Alcotest.test_case "not-taken branch duration" `Quick
           overlap_uses_actual_duration;
         Alcotest.test_case "second trigger" `Quick second_trigger_schedules;
         Alcotest.test_case "loop cycle accounting" `Quick loop_takes_eight_cycles;
         Alcotest.test_case "image cutoff differential" `Slow
           image_cutoff_differential;
         Alcotest.test_case "rig full-state differential" `Slow
           rig_full_state_differential;
         Alcotest.test_case "cutoff write-back" `Quick writeback_cutoff_regression;
         Alcotest.test_case "rewind after reset" `Quick rewind_after_reset;
         Alcotest.test_case "attempt allocation" `Quick attempt_allocation;
         Qseed.to_alcotest prop_delta_matches_journal_scan ]);
      ("paper-shapes",
       [ Alcotest.test_case "table 1" `Slow table1_shape;
         Alcotest.test_case "table 1 golden totals" `Slow table1_golden_totals;
         Alcotest.test_case "table 2 golden totals" `Slow table2_golden_totals;
         Alcotest.test_case "table 3 golden rows" `Slow table3_golden_rows;
         Alcotest.test_case "table 2" `Slow table2_partial_exceeds_full;
         Alcotest.test_case "tuner" `Slow tuner_finds_reliable_params ]);
      ("parity",
       [ Alcotest.test_case "tables I-III at jobs 1 and 3" `Slow tables_jobs_parity ]) ]
