type guard = While_not_a | While_a | While_ne_const

let all_guards = [ While_not_a; While_a; While_ne_const ]

let guard_name = function
  | While_not_a -> "while(!a)"
  | While_a -> "while(a)"
  | While_ne_const -> "while(a!=0xD3B9AEC6)"

let loop_cycles = 8

(* Raise the trigger pin: r1 holds the GPIO data-register address
   afterwards (0x48000028). *)
let trigger_preamble =
  {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  movs r2, #1
  str  r2, [r1, #0]
|}

let retrigger = {|
  movs r2, #0
  str  r2, [r1, #0]
  movs r2, #1
  str  r2, [r1, #0]
|}

(* The guard loops match Table I's instruction listings: 8 cycles per
   iteration (MOV 1, ADDS 1, LDRB 2, CMP 1, B<cond> 3). *)
let simple_loop ~label ~branch =
  Printf.sprintf
    {|
%s:
  mov  r3, sp
  adds r3, #7
  ldrb r3, [r3]
  cmp  r3, #0
  %s   %s
|}
    label branch label

(* a lives in the byte at [sp+7]. *)
let store_a value =
  Printf.sprintf "  movs r2, #%d\n  mov  r3, sp\n  strb r2, [r3, #7]\n" value

(* while (a != 0xD3B9AEC6): a is the word at [sp+16], the constant comes
   from a literal pool (LDR Rd, =imm), as compiled code does. The pool
   offsets below are fixed by the program layout and checked by the
   dedicated unit test. *)
let ne_const_single =
  {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  ldr  r2, [pc, #20]
  str  r2, [sp, #16]
  movs r2, #1
  str  r2, [r1, #0]
loop:
  ldr  r2, [sp, #16]
  ldr  r3, [pc, #12]
  cmp  r2, r3
  bne  loop
  movs r0, #0xAA
  bkpt #0
  nop
lit0:
  .word 0xE7D25763
lit1:
  .word 0xD3B9AEC6
|}

let ne_const_double =
  {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  ldr  r2, [pc, #40]
  str  r2, [sp, #16]
  movs r2, #1
  str  r2, [r1, #0]
loop1:
  ldr  r2, [sp, #16]
  ldr  r3, [pc, #32]
  cmp  r2, r3
  bne  loop1
  movs r4, #1
  movs r2, #0
  str  r2, [r1, #0]
  movs r2, #1
  str  r2, [r1, #0]
loop2:
  ldr  r2, [sp, #16]
  ldr  r3, [pc, #16]
  cmp  r2, r3
  bne  loop2
  movs r0, #0xAA
  bkpt #0
  nop
  nop
lit0:
  .word 0xE7D25763
lit1:
  .word 0xD3B9AEC6
|}

let single_loop_program = function
  | While_not_a ->
    store_a 0 ^ trigger_preamble
    ^ simple_loop ~label:"loop" ~branch:"beq"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_a ->
    store_a 1 ^ trigger_preamble
    ^ simple_loop ~label:"loop" ~branch:"bne"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_ne_const -> ne_const_single

(* Table III's target: the same two loops but back-to-back under a
   single trigger, so a glitch stretched over 10-20 cycles can reach
   into the second loop (the paper's long-glitch setup). *)
let ne_const_long =
  {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  ldr  r2, [pc, #28]
  str  r2, [sp, #16]
  movs r2, #1
  str  r2, [r1, #0]
loop1:
  ldr  r2, [sp, #16]
  ldr  r3, [pc, #20]
  cmp  r2, r3
  bne  loop1
  movs r4, #1
loop2:
  ldr  r2, [sp, #16]
  ldr  r3, [pc, #12]
  cmp  r2, r3
  bne  loop2
  movs r0, #0xAA
  bkpt #0
lit0:
  .word 0xE7D25763
lit1:
  .word 0xD3B9AEC6
|}

let long_glitch_program = function
  | While_not_a ->
    store_a 0 ^ trigger_preamble
    ^ simple_loop ~label:"loop1" ~branch:"beq"
    ^ "  movs r4, #1\n"
    ^ simple_loop ~label:"loop2" ~branch:"beq"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_a ->
    store_a 1 ^ trigger_preamble
    ^ simple_loop ~label:"loop1" ~branch:"bne"
    ^ "  movs r4, #1\n"
    ^ simple_loop ~label:"loop2" ~branch:"bne"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_ne_const -> ne_const_long

let double_loop_program = function
  | While_not_a ->
    store_a 0 ^ trigger_preamble
    ^ simple_loop ~label:"loop1" ~branch:"beq"
    ^ "  movs r4, #1\n" ^ retrigger
    ^ simple_loop ~label:"loop2" ~branch:"beq"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_a ->
    store_a 1 ^ trigger_preamble
    ^ simple_loop ~label:"loop1" ~branch:"bne"
    ^ "  movs r4, #1\n" ^ retrigger
    ^ simple_loop ~label:"loop2" ~branch:"bne"
    ^ "  movs r0, #0xAA\n  bkpt #0\n"
  | While_ne_const -> ne_const_double

let comparator = function
  | While_not_a | While_a -> 3
  | While_ne_const -> 2

let escaped board (obs : Glitcher.observation) =
  match obs.stop with
  | `Stopped (Machine.Exec.Breakpoint 0) -> Board.reg board 0 = 0xAA
  | `Stopped
      (Machine.Exec.Breakpoint _ | Machine.Exec.Swi_trap _
      | Machine.Exec.Bad_read _ | Machine.Exec.Bad_write _
      | Machine.Exec.Bad_fetch _ | Machine.Exec.Invalid_instruction _
      | Machine.Exec.Step_limit)
  | `Timeout -> false

(* --- the sweep kernel ------------------------------------------------------- *)

(* A booted target, ready for snapshot-replay attacks: the board has run
   glitch-free to its first trigger edge (the deterministic "boot"), the
   state at that edge is snapshotted, and the unglitched continuation is
   recorded as a baseline. Every attempt then starts from the snapshot
   instead of a power-on reset — sound because no glitch window can arm
   before the first trigger edge exists — and ends via the baseline the
   moment its schedule is provably dead. *)
type rig = {
  rig_board : Board.t;
  rig_snap : Board.snapshot;
  rig_baseline : Glitcher.baseline;
  rig_max_cycles : int;
  boot_cycles : int;
}

(* The boot, separated from the rig so it can be shared: the snapshot
   and baseline are deep copies ([Memory.snapshot] copies every region,
   [Cpu.copy] the registers) that are only ever read afterwards —
   [Board.restore] and baseline validity checks blit/compare FROM them
   — so handing the same boot to several worker domains is sound. Each
   worker still needs a private [Board.t] (boards mutate on every
   attempt), but materializing one is an assemble-and-load, not the
   boot emulation plus up-to-[max_cycles] baseline recording that
   booting per worker used to cost. *)
type boot = {
  b_program : string;
  b_snap : Board.snapshot;
  b_baseline : Glitcher.baseline;
  b_max_cycles : int;
  b_boot_cycles : int;
  b_board : Board.t;  (* the board that booted; claimable by one rig *)
}

let boot_once ?(max_cycles = 300) program =
  let board = Board.create (Board.Asm program) in
  if not (Board.run_until_trigger board ~max_cycles) then
    invalid_arg "Attack.boot_once: program never raises its trigger";
  let snap = Board.snapshot board in
  let boot_cycles = Board.cycles board in
  let baseline = Glitcher.baseline ~max_cycles board ~from:snap in
  { b_program = program;
    b_snap = snap;
    b_baseline = baseline;
    b_max_cycles = max_cycles;
    b_boot_cycles = boot_cycles;
    b_board = board }

(* A fresh board for the shared boot. Attempts restore the snapshot
   before executing anything, so the board only has to have the same
   memory map as the booted one — which [Board.create] on the same
   program guarantees. *)
let rig_of_boot boot =
  { rig_board = Board.create (Board.Asm boot.b_program);
    rig_snap = boot.b_snap;
    rig_baseline = boot.b_baseline;
    rig_max_cycles = boot.b_max_cycles;
    boot_cycles = boot.b_boot_cycles }

let boot_rig ?max_cycles program =
  let boot = boot_once ?max_cycles program in
  { rig_board = boot.b_board;
    rig_snap = boot.b_snap;
    rig_baseline = boot.b_baseline;
    rig_max_cycles = boot.b_max_cycles;
    boot_cycles = boot.b_boot_cycles }

let boot_cycles rig = rig.boot_cycles
let rig_board rig = rig.rig_board

let attempt ?config ?nonce rig schedule =
  Glitcher.run ?config ~max_cycles:rig.rig_max_cycles ?nonce
    ~from:rig.rig_snap ~baseline:rig.rig_baseline rig.rig_board schedule

type sweep = {
  attempts : int;
  emulated_cycles : int;
  replayed_cycles : int;
  boots : int;
}

let sweep_zero =
  { attempts = 0; emulated_cycles = 0; replayed_cycles = 0; boots = 0 }

let sweep_add a b =
  { attempts = a.attempts + b.attempts;
    emulated_cycles = a.emulated_cycles + b.emulated_cycles;
    replayed_cycles = a.replayed_cycles + b.replayed_cycles;
    boots = a.boots + b.boots }

let sweep_perf ~label ?pool s elapsed_s =
  Stats.Perf.make ~label ?pool ~items:s.attempts
    (Stats.Perf.split ~rate:"replay_rate" ("booted_cycles", s.emulated_cycles)
       ("replayed_cycles", s.replayed_cycles))
    elapsed_s

let full_parameter_sweep ?config rig ~make_schedule ~classify =
  let attempts = ref 0 and emulated = ref 0 and replayed = ref 0 in
  for width = -49 to 49 do
    for offset = -49 to 49 do
      incr attempts;
      let schedule = make_schedule ~width ~offset in
      let obs = attempt ?config rig schedule in
      emulated := !emulated + (obs.Glitcher.cycles - obs.Glitcher.replayed_cycles);
      replayed := !replayed + obs.Glitcher.replayed_cycles;
      classify rig.rig_board obs
    done
  done;
  { attempts = !attempts;
    emulated_cycles = !emulated;
    replayed_cycles = !replayed;
    boots = 0 }

(* --- Table I ---------------------------------------------------------------- *)

type cycle_stats = { successes : int; values : (int * int) list }

type table1 = {
  guard : guard;
  per_cycle : cycle_stats array;
  attempts_per_cycle : int;
  sweep1 : sweep;
}

(* Every attempt rewinds the board to the same trigger snapshot, so a
   cycle's statistics depend only on (program, cycle, fault config) —
   never on which board object ran it or in what order. The parallel
   paths exploit this: the boot happens ONCE, each work item gets a
   private board sharing the boot's snapshot/baseline (see [boot]),
   and per-item results are reassembled by index, bit-identical to
   the sequential sweep. *)
let map_cycles ?pool ~boot f =
  match pool with
  | Some pool when Runtime.Pool.jobs pool > 1 ->
    Runtime.Pool.map_array pool
      (fun cycle -> f (rig_of_boot boot) cycle)
      (Array.init loop_cycles Fun.id)
  | Some _ | None ->
    let rig = rig_of_boot boot in
    Array.init loop_cycles (f rig)

let run_table1 ?pool ?config guard =
  let cmp_reg = comparator guard in
  let run_cycle rig cycle =
    let successes = ref 0 in
    let values : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let sweep =
      full_parameter_sweep ?config rig
        ~make_schedule:(fun ~width ~offset ->
          [ Glitcher.single ~width ~offset ~ext_offset:cycle ])
        ~classify:(fun board obs ->
          if escaped board obs then begin
            incr successes;
            let v = Board.reg board cmp_reg in
            Hashtbl.replace values v
              (1 + Option.value ~default:0 (Hashtbl.find_opt values v))
          end)
    in
    ( { successes = !successes;
        values =
          Hashtbl.fold (fun v c acc -> (v, c) :: acc) values []
          |> List.sort (fun (_, c1) (_, c2) -> compare c2 c1) },
      sweep )
  in
  let boot = boot_once (single_loop_program guard) in
  let cells = map_cycles ?pool ~boot run_cycle in
  let sweep = Array.fold_left (fun acc (_, s) -> sweep_add acc s) sweep_zero cells in
  let sweep = { sweep with boots = 1 } in
  { guard;
    per_cycle = Array.map fst cells;
    attempts_per_cycle = sweep.attempts / loop_cycles;
    sweep1 = sweep }

(* --- Table II ---------------------------------------------------------------- *)

type table2 = {
  guard2 : guard;
  partial : int array;
  full : int array;
  attempts2 : int;
  sweep2 : sweep;
}

let run_table2 ?pool ?config guard =
  let run_cycle rig cycle =
    let partial = ref 0 and full = ref 0 in
    let sweep =
      full_parameter_sweep ?config rig
        ~make_schedule:(fun ~width ~offset ->
          [ Glitcher.single ~width ~offset ~ext_offset:cycle;
            { (Glitcher.single ~width ~offset ~ext_offset:cycle) with
              trigger_index = 1 } ])
        ~classify:(fun board obs ->
          if escaped board obs then incr full
          else if Board.reg board 4 = 1 then incr partial)
    in
    (!partial, !full, sweep)
  in
  let boot = boot_once ~max_cycles:500 (double_loop_program guard) in
  let cells = map_cycles ?pool ~boot run_cycle in
  let sweep =
    Array.fold_left (fun acc (_, _, s) -> sweep_add acc s) sweep_zero cells
  in
  let sweep = { sweep with boots = 1 } in
  { guard2 = guard;
    partial = Array.map (fun (p, _, _) -> p) cells;
    full = Array.map (fun (_, f, _) -> f) cells;
    attempts2 = sweep.attempts;
    sweep2 = sweep }

(* --- Table III ---------------------------------------------------------------- *)

type table3 = {
  guard3 : guard;
  windows : (int * int) list;
  attempts_per_window : int;
  sweep3 : sweep;
}

let run_table3 ?pool ?config guard =
  let run_window rig last_cycle =
    let successes = ref 0 in
    let sweep =
      full_parameter_sweep ?config rig
        ~make_schedule:(fun ~width ~offset ->
          [ Glitcher.with_repeat
              (Glitcher.single ~width ~offset ~ext_offset:0)
              (last_cycle + 1) ])
        ~classify:(fun board obs -> if escaped board obs then incr successes)
    in
    (last_cycle, !successes, sweep)
  in
  let boot = boot_once ~max_cycles:800 (long_glitch_program guard) in
  let windows = [| 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 |] in
  let rows =
    match pool with
    | Some pool when Runtime.Pool.jobs pool > 1 ->
      Runtime.Pool.map_array pool
        (fun last_cycle -> run_window (rig_of_boot boot) last_cycle)
        windows
    | Some _ | None ->
      let rig = rig_of_boot boot in
      Array.map (run_window rig) windows
  in
  let sweep =
    Array.fold_left (fun acc (_, _, s) -> sweep_add acc s) sweep_zero rows
  in
  let sweep = { sweep with boots = 1 } in
  { guard3 = guard;
    windows = Array.to_list rows |> List.map (fun (w, s, _) -> (w, s));
    attempts_per_window = sweep.attempts / Array.length windows;
    sweep3 = sweep }
