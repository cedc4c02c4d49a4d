type guard = While_not_a | While_a | While_ne_const

let all_guards = [ While_not_a; While_a; While_ne_const ]

let guard_name = function
  | While_not_a -> "while(!a)"
  | While_a -> "while(a)"
  | While_ne_const -> "while(a!=0xD3B9AEC6)"

let loop_cycles = 8

(* Raise the trigger pin: r1 holds the GPIO data-register address
   ([Lower.Codegen.gpio_trigger_address]) afterwards. *)
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

(* The shareable product of booting: the board has run glitch-free to
   its first trigger edge (the deterministic "boot"), the state at that
   edge is snapshotted, and the unglitched continuation is recorded as
   a baseline. Snapshot and baseline are deep copies ([Memory.snapshot]
   copies every region, [Cpu.copy] the registers) that are only ever
   read afterwards — a rig's seal copies the snapshot's image once, its
   rewinds and cutoffs copy registers and delta bytes FROM them — so one
   boot may back rigs on several worker domains at once, each rig with
   its own journal. *)
type boot = {
  b_program : Board.program;
  b_snap : Board.snapshot;
  b_baseline : Glitcher.baseline;
  b_max_cycles : int;
}

exception No_trigger

let boot ?(max_cycles = 300) ?after_trigger program =
  let board = Board.create program in
  if not (Board.run_until_trigger board ~max_cycles) then raise No_trigger;
  let snap = Board.snapshot board in
  let max_cycles =
    match after_trigger with
    | Some n -> Board.cycles board + n
    | None -> max_cycles
  in
  { b_program = program;
    b_snap = snap;
    b_baseline = Glitcher.baseline ~max_cycles board ~from:snap;
    b_max_cycles = max_cycles }

let boot_once ?max_cycles source = boot ?max_cycles (Board.Asm source)

type sweep = {
  attempts : int;
  emulated_cycles : int;
  replayed_cycles : int;
  tail_cycles : int;
  boots : int;
}

let sweep_zero =
  { attempts = 0;
    emulated_cycles = 0;
    replayed_cycles = 0;
    tail_cycles = 0;
    boots = 0 }

let sweep_add a b =
  { attempts = a.attempts + b.attempts;
    emulated_cycles = a.emulated_cycles + b.emulated_cycles;
    replayed_cycles = a.replayed_cycles + b.replayed_cycles;
    tail_cycles = a.tail_cycles + b.tail_cycles;
    boots = a.boots + b.boots }

let sweep_perf ~label ?pool s elapsed_s =
  Stats.Perf.make ~label ?pool ~items:s.attempts
    (Stats.Perf.split ~rate:"replay_rate" ("booted_cycles", s.emulated_cycles)
       ("replayed_cycles", s.replayed_cycles)
    @ [ ("tail_cycles", Stats.Perf.Count s.tail_cycles) ])
    elapsed_s

(* A worker's private board on a shared boot, plus what its attempts
   have cost so far. Every attempt starts from the boot's snapshot
   instead of a power-on reset — sound because no glitch window can arm
   before the first trigger edge exists — and ends via the baseline the
   moment its schedule is provably dead. Its counts are fields of its
   own, so an attempt adds to them without building a [sweep]. *)
type rig = {
  boot : boot;
  board : Board.t;
  mutable attempts : int;
  mutable emulated : int;
  mutable replayed : int;
  mutable tail : int;
}

(* The board only has to have the booted one's memory map, which
   [Board.create] on the same program guarantees: materializing a rig
   is an assemble-and-load plus one whole-image copy of the snapshot
   (the seal), not a boot. Every attempt then rewinds through the
   rig's journal. *)
let rig_of_boot boot =
  let board = Board.create boot.b_program in
  Board.seal board boot.b_snap;
  { boot; board; attempts = 0; emulated = 0; replayed = 0; tail = 0 }

let rig_board rig = rig.board

let tally rig =
  { attempts = rig.attempts;
    emulated_cycles = rig.emulated;
    replayed_cycles = rig.replayed;
    tail_cycles = rig.tail;
    boots = 0 }

let count rig (obs : Glitcher.observation) =
  let replayed = obs.replayed_cycles in
  rig.attempts <- rig.attempts + 1;
  rig.emulated <- rig.emulated + obs.cycles - replayed;
  rig.replayed <- rig.replayed + replayed;
  rig.tail <- rig.tail + obs.tail_cycles;
  obs

let attempt ?nonce rig schedule =
  let b = rig.boot in
  count rig
    (Glitcher.run ~max_cycles:b.b_max_cycles ?nonce ~from:b.b_snap
       ~baseline:b.b_baseline rig.board schedule)

(* [attempt rig] on [shape] at the point, through the sweep entry point:
   no schedule built and no optional argument boxed per attempt. *)
let attempt_point rig shape ~width ~offset =
  let b = rig.boot in
  count rig
    (Glitcher.run_point ~max_cycles:b.b_max_cycles ~nonce:0 ~from:b.b_snap
       ~baseline:b.b_baseline rig.board shape ~width ~offset)

(* Every attempt rewinds to the same trigger snapshot, so an item's
   result depends only on (boot, item) — never on which
   rig ran it or in what order. Each worker claims items one at a time
   on its own rig; results are reassembled by index and the rigs'
   tallies summed, bit-identical at every job count. *)
let map_items ?pool ~boot f items =
  let results = Array.make (Array.length items) None in
  let rigs =
    Runtime.Pool.drain ?pool ~size:1 ~lo:0 ~hi:(Array.length items)
      ~init:(fun () -> rig_of_boot boot)
      (fun rig i _ -> results.(i) <- Some (f rig items.(i)))
  in
  ( Array.map Option.get results,
    { (List.fold_left (fun s rig -> sweep_add s (tally rig)) sweep_zero rigs) with
      boots = 1 } )

let full_parameter_sweep rig shape ~classify =
  let shape = Array.of_list shape in
  for width = -49 to 49 do
    for offset = -49 to 49 do
      classify rig.board (attempt_point rig shape ~width ~offset)
    done
  done

(* --- Table I ---------------------------------------------------------------- *)

type cycle_stats = { successes : int; values : (int * int) list }

type table1 = {
  guard : guard;
  per_cycle : cycle_stats array;
  attempts_per_cycle : int;
  sweep1 : sweep;
}

let cycles = Array.init loop_cycles Fun.id

let run_table1 ?pool guard =
  let cmp_reg = comparator guard in
  let run_cycle rig cycle =
    let successes = ref 0 in
    let values : (int, int) Hashtbl.t = Hashtbl.create 16 in
    full_parameter_sweep rig
      [ Glitcher.single ~width:0 ~offset:0 ~ext_offset:cycle ]
      ~classify:(fun board obs ->
        if escaped board obs then begin
          incr successes;
          let v = Board.reg board cmp_reg in
          Hashtbl.replace values v
            (1 + Option.value ~default:0 (Hashtbl.find_opt values v))
        end);
    { successes = !successes;
      values =
        Hashtbl.fold (fun v c acc -> (v, c) :: acc) values []
        |> List.sort (fun (_, c1) (_, c2) -> compare c2 c1) }
  in
  let boot = boot_once (single_loop_program guard) in
  let per_cycle, sweep = map_items ?pool ~boot run_cycle cycles in
  { guard;
    per_cycle;
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

let run_table2 ?pool guard =
  let run_cycle rig cycle =
    let partial = ref 0 and full = ref 0 in
    let first = Glitcher.single ~width:0 ~offset:0 ~ext_offset:cycle in
    full_parameter_sweep rig
      [ first; { first with trigger_index = 1 } ]
      ~classify:(fun board obs ->
        if escaped board obs then incr full
        else if Board.reg board 4 = 1 then incr partial);
    (!partial, !full)
  in
  let boot = boot_once ~max_cycles:500 (double_loop_program guard) in
  let cells, sweep = map_items ?pool ~boot run_cycle cycles in
  { guard2 = guard;
    partial = Array.map fst cells;
    full = Array.map snd cells;
    attempts2 = sweep.attempts;
    sweep2 = sweep }

(* --- Table III ---------------------------------------------------------------- *)

type table3 = {
  guard3 : guard;
  windows : (int * int) list;
  attempts_per_window : int;
  sweep3 : sweep;
}

let run_table3 ?pool guard =
  let run_window rig last_cycle =
    let successes = ref 0 in
    full_parameter_sweep rig
      [ Glitcher.with_repeat
          (Glitcher.single ~width:0 ~offset:0 ~ext_offset:0)
          (last_cycle + 1) ]
      ~classify:(fun board obs -> if escaped board obs then incr successes);
    (last_cycle, !successes)
  in
  let boot = boot_once ~max_cycles:800 (long_glitch_program guard) in
  let windows = [| 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 |] in
  let rows, sweep = map_items ?pool ~boot run_window windows in
  { guard3 = guard;
    windows = Array.to_list rows;
    attempts_per_window = sweep.attempts / Array.length windows;
    sweep3 = sweep }
