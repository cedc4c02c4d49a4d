(* The whole-state oracle for journaled attack rigs, used by test_hw's
   differentials and properties. The oracle board is never sealed:
   every attempt on it is a whole-image [Board.restore] followed by
   full emulation in the reference loop ([Glitcher_oracle.run]), with
   no dead-schedule cutoff and no plain tail. A rig's attempt must
   leave its board in the same state: the whole 144 KB image,
   registers, flags, cycle count, trigger edges and GPIO. *)

open Hw

type oracle = { board : Board.t; snap : Board.snapshot; max_cycles : int }

(* Boot [program] to its first trigger edge, as [Attack.boot] does with
   the same arguments. *)
let oracle ?after_trigger ~max_cycles program =
  let board = Board.create program in
  if not (Board.run_until_trigger ~max_cycles board) then
    Alcotest.fail "oracle board never triggered";
  let snap = Board.snapshot board in
  let max_cycles =
    match after_trigger with
    | Some n -> Board.cycles board + n
    | None -> max_cycles
  in
  { board; snap; max_cycles }

(* The first part of the state where [a] and [b] differ, if any. *)
let mismatch a b =
  let regs b = List.init 16 (Board.reg b) in
  if regs a <> regs b then Some "registers"
  else if Board.cycles a <> Board.cycles b then Some "cycle count"
  else if Board.trigger_edges a <> Board.trigger_edges b then
    Some "trigger edges"
  else if Board.snapshot a <> Board.snapshot b then Some "image, flags or GPIO"
  else None

let same_observation (a : Glitcher.observation) (b : Glitcher.observation) =
  a.stop = b.stop && a.cycles = b.cycles && a.fired = b.fired
  && a.glitched_cycles = b.glitched_cycles

(* One attempt on [rig] and the same schedule on the oracle: [None] when
   the observations and the whole post-mortem states agree. A nonce-0
   schedule whose entries share one point goes through the sweeps'
   entry point, [Attack.attempt_point]. *)
let check_attempt ?nonce o rig schedule =
  let obs =
    match (nonce, schedule) with
    | (None | Some 0), (p : Glitcher.params) :: _
      when List.for_all
             (fun (q : Glitcher.params) -> q.width = p.width && q.offset = p.offset)
             schedule ->
      Attack.attempt_point rig (Array.of_list schedule) ~width:p.width
        ~offset:p.offset
    | _ -> Attack.attempt ?nonce rig schedule
  in
  let expected =
    Glitcher_oracle.run ~max_cycles:o.max_cycles ?nonce ~from:o.snap o.board
      schedule
  in
  if not (same_observation obs expected) then (obs, Some "observation")
  else (obs, mismatch (Attack.rig_board rig) o.board)

(* Write-back: after the trigger, the program stores 0x5A over a byte
   and, four NOPs later, stores the byte's original value back. *)
let writeback_program =
  {|
  movs r1, #0x48
  lsls r1, r1, #24
  adds r1, #0x28
  movs r2, #1
  str  r2, [r1, #0]
  mov  r3, sp
  ldrb r4, [r3, #8]
  movs r2, #0x5A
  strb r2, [r3, #8]
  nop
  nop
  nop
  nop
  strb r4, [r3, #8]
  bkpt #0
|}

(* A window on the first store (cycles 4-5 after the trigger edge) at
   the plane's least effective (width, offset): nothing fires, so the
   baseline cuts the attempt off as the window closes, at the first NOP
   — between the two stores. Returns the cycles the cutoff served and
   [None] when the rig's post-mortem state equals the oracle's. *)
let writeback_cutoff () =
  let program = Board.Asm writeback_program in
  let o = oracle ~max_cycles:300 program in
  let rig = Attack.rig_of_boot (Attack.boot_once writeback_program) in
  let quietest = ref (0, 0, infinity) in
  for width = -49 to 49 do
    for offset = -49 to 49 do
      let e = Susceptibility.landscape ~width ~offset in
      let _, _, best = !quietest in
      if e < best then quietest := (width, offset, e)
    done
  done;
  let width, offset, _ = !quietest in
  let trigger_cycle = Board.cycles o.board in
  let obs, mismatch =
    check_attempt o rig [ Glitcher.single ~width ~offset ~ext_offset:4 ]
  in
  if obs.fired > 0 then Alcotest.fail "the write-back window fired";
  (obs.replayed_cycles - trigger_cycle, mismatch)

(* [Board.delta]'s write set as the board computed it before it moved
   onto [Machine.State]: a scan of the whole journal [j] over [mem],
   each address packed once with its oldest pre-image, as
   [(addr lsl 16) lor (before lsl 8) lor after], ascending by address. *)
let journal_delta mem j =
  let before = Hashtbl.create 64 in
  (* newest first, so each address keeps its oldest pre-image *)
  for i = Machine.Memory.journal_length j - 1 downto 0 do
    let addr, old = Machine.Memory.journal_entry j i in
    Hashtbl.replace before addr old
  done;
  let pack addr old acc =
    let now = Machine.Memory.read_u8_exn mem addr in
    ((addr lsl 16) lor (old lsl 8) lor now) :: acc
  in
  Array.of_list (List.sort compare (Hashtbl.fold pack before []))
