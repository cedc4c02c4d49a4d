type params = {
  width : int;
  offset : int;
  ext_offset : int;
  repeat : int;
  trigger_index : int;
}

let single ~width ~offset ~ext_offset =
  { width; offset; ext_offset; repeat = 1; trigger_index = 0 }

let with_repeat p repeat = { p with repeat }

type observation = {
  stop : [ `Stopped of Machine.Exec.stop | `Timeout ];
  cycles : int;
  fired : int;
  glitched_cycles : int;
  replayed_cycles : int;
}

let imax (a : int) b = if a > b then a else b
let imin (a : int) b = if a < b then a else b

(* Which armed window overlaps [start, start+duration)? The index of its
   entry, or -1. [edge i] is the cycle stamp of trigger edge [i] < [n_edges].
   When several windows overlap, the one containing the earliest
   *absolute* cycle wins (the first listed on a tie). Ties between windows
   anchored to different trigger edges must compare absolute cycles:
   comparing [lo - edge] across edges (as an earlier version did) could
   resolve a multi-trigger schedule to the later window just because its
   own trigger fired more recently. *)
let window_index entries ~n_edges ~edge ~start ~duration =
  let best = ref (-1) and best_lo = ref 0 in
  for i = 0 to Array.length entries - 1 do
    let p = entries.(i) in
    if p.trigger_index < n_edges then begin
      let w_lo = edge p.trigger_index + p.ext_offset in
      let lo = imax w_lo start
      and hi = imin (w_lo + p.repeat) (start + duration) in
      if lo < hi && (!best < 0 || lo < !best_lo) then begin
        best := i;
        best_lo := lo
      end
    end
  done;
  !best

(* The overlapping cycle's position relative to the window's own edge. *)
let relative_cycle p ~edge ~start = imax (edge + p.ext_offset) start - edge

let active_window schedule edges ~start ~duration =
  let entries = Array.of_list schedule and edges = Array.of_list edges in
  match
    window_index entries ~n_edges:(Array.length edges) ~edge:(Array.get edges)
      ~start ~duration
  with
  | -1 -> None
  | i ->
    let p = entries.(i) in
    Some (p, relative_cycle p ~edge:edges.(p.trigger_index) ~start)

(* What an effect does to the step, given the glitch point it was drawn
   at; [Normal] exactly when it does not fire. *)
let concretise ~width ~offset ~cycle (instr : Thumb.Instr.t)
    (effect : Susceptibility.effect) : Board.applied =
  match effect with
  | Susceptibility.No_fault -> Board.Normal
  | Susceptibility.Skip -> Board.As_nop
  | Susceptibility.Corrupt_fetch ->
    let word = Thumb.Encode.instr instr in
    let word' = Susceptibility.corrupt_word ~width ~offset ~cycle word in
    if word' = word then Board.Normal else Board.Fetch_word word'
  | Susceptibility.Load_residue v -> Board.Load_value v
  | Susceptibility.Load_bitflip ->
    Board.Load_mangle
      (fun v -> Susceptibility.corrupt_value32 ~width ~offset ~cycle v)
  | Susceptibility.Flip_z -> Board.Z_flip
  | Susceptibility.Pc_corrupt ->
    (* corrupting the prefetch address sends the core into unmapped or
       unintended memory; derive a deterministic bogus target *)
    let draw = Hashrand.hash4 ~seed:Susceptibility.seed 8 width offset cycle in
    Board.Pc_set (0x1000 + (2 * Hashrand.to_bits draw ~width:16))

(* Susceptibility of the decode and fetch latches: encoding corruption
   there applies to whatever instruction occupies the stage, regardless
   of its class — it is the latch being disturbed, not the ALU. *)
let back_stage_factor = 0.55

(* --- pristine-continuation baseline ---------------------------------------

   A replayed attempt whose every window has closed without applying a
   fault is, from that cycle on, exactly the unglitched run: the board
   state equals what a glitch-free run reaches at the same cycle, every
   future stochastic decision needs a window, and no window can open
   again. The baseline captures that unglitched continuation once — end
   state, stop reason, and how many trigger edges ever appear — so the
   sweep kernel can cut such attempts short and jump to the recorded end
   state instead of emulating hundreds of dead spin cycles.

   The end state is a write-set delta, not an image: every address the
   unglitched run wrote after the trigger, with its end value. A board
   cut off mid-run holds the snapshot plus a prefix of those writes, so
   writing the whole set lands exactly on the end state. A diff of the
   end image against the snapshot would not: a byte written and later
   written back to its snapshot value is absent from the diff, yet stale
   on a board cut off between the two stores. *)

type baseline = {
  b_max_cycles : int;
  b_from_cycles : int;  (* cycle stamp of the snapshot the run starts from *)
  b_stop : [ `Stopped of Machine.Exec.stop | `Timeout ];
  b_end : Board.delta;
  b_cycles : int;
  b_edges : int;  (* trigger edges ever raised by the unglitched run *)
}

let baseline ?(max_cycles = 3_000) board ~from =
  Board.seal board from;
  let from_cycles = Board.cycles board in
  let stop = Board.run_plain ~max_cycles board in
  { b_max_cycles = max_cycles;
    b_from_cycles = from_cycles;
    b_stop = stop;
    b_end = Board.delta board;
    b_cycles = Board.cycles board;
    b_edges = Board.edge_count board }

(* Entry [p]'s window is anchored to an edge already seen and has closed
   by [now]: nothing that happens from here on can open it again. *)
let closed p ~n_edges ~edge ~now =
  p.trigger_index < n_edges
  && edge p.trigger_index + p.ext_offset + p.repeat <= now

(* Every window from entry [i] on is closed. *)
let rec windows_closed entries i ~n_edges ~edge ~now =
  i >= Array.length entries
  || closed entries.(i) ~n_edges ~edge ~now
     && windows_closed entries (i + 1) ~n_edges ~edge ~now

(* Every window from entry [i] on is dead on a pristine board: closed,
   or anchored to an edge index the unglitched continuation never
   produces. A window waiting on an edge that *will* arrive unglitched
   (index < b_edges) may still open, so it blocks the cutoff. *)
let rec windows_dead entries i ~n_edges ~edge ~b_edges ~now =
  i >= Array.length entries
  || (let p = entries.(i) in
      if p.trigger_index < n_edges then closed p ~n_edges ~edge ~now
      else p.trigger_index >= b_edges)
     && windows_dead entries (i + 1) ~n_edges ~edge ~b_edges ~now

(* The corruption planted for [pc], taken out of [pending]; [Normal]
   when there is none (a planted step is never [Normal]). *)
let take_planted pending pc =
  match List.assoc_opt pc !pending with
  | None -> Board.Normal
  | Some planted ->
    pending := List.remove_assoc pc !pending;
    planted

let run ?(max_cycles = 3_000) ?(nonce = 0) ?from ?baseline board schedule =
  (match from with
  | Some snap -> Board.rewind board snap
  | None -> Board.reset board);
  (* cycles already on the board at start were served by the rewind
     to the snapshot, not emulated by this attempt *)
  let replayed = ref (Board.cycles board) in
  (match baseline with
  | Some b when b.b_max_cycles <> max_cycles ->
    invalid_arg "Glitcher.run: baseline built for a different max_cycles"
  | Some b when b.b_from_cycles <> Board.cycles board ->
    invalid_arg "Glitcher.run: baseline built from a different snapshot"
  | Some _ | None -> ());
  let seed = Susceptibility.seed in
  let entries = Array.of_list schedule in
  (* each entry's landscape, looked up once per attempt *)
  let landscapes =
    Array.map
      (fun p -> Susceptibility.landscape ~width:p.width ~offset:p.offset)
      entries
  in
  let edge = Board.edge board in
  let fired = ref 0 and glitched = ref 0 in
  (* true while no fault has been applied to any step: the execution so
     far is bit-identical to the unglitched run *)
  let pristine = ref true in
  (* Corruption planted in the decode/fetch stages materialises when the
     victim address is reached: (victim pc, planted step) pairs, one per
     address. A branch in between flushes the pipeline and the planted
     corruption with it: the entry is simply never consumed. *)
  let pending = ref [] in
  let finish stop =
    { stop;
      cycles = Board.cycles board;
      fired = !fired;
      glitched_cycles = !glitched;
      replayed_cycles = !replayed }
  in
  (* The fault, if any, that the armed windows put on [instr] at [pc]. *)
  let glitch instr ~pc =
    let start = Board.cycles board in
    (* overlap is tested against the cycles the instruction will
       actually consume: a not-taken branch occupies 1 cycle, so a
       glitch must not fire in the 2 phantom cycles of the taken
       duration (they never elapse — Board.step advances by the
       actual cost) *)
    let duration = Board.instr_duration board instr in
    match
      window_index entries ~n_edges:(Board.edge_count board) ~edge ~start
        ~duration
    with
    | -1 -> Board.Normal
    | i ->
      incr glitched;
      let p = entries.(i) in
      let width = p.width and offset = p.offset in
      let cycle = relative_cycle p ~edge:(edge p.trigger_index) ~start in
      let attempt_nonce = (nonce * 31) + p.trigger_index in
      (* Which of the Cortex-M0's three pipeline stages does the glitch
         disturb? Decode and fetch hold the next two instructions. *)
      let stage_pick =
        Hashrand.to_u01 (Hashrand.hash4 ~seed 4 width offset cycle)
      in
      if stage_pick < 0.5 then begin
        let effect =
          Susceptibility.roll ~sustained:(p.repeat > 4)
            ~landscape:landscapes.(i) ~width ~offset ~cycle ~nonce:attempt_nonce
            ~instr ~sp:(Board.reg board 13)
        in
        let applied = concretise ~width ~offset ~cycle instr effect in
        (match applied with Board.Normal -> () | _ -> incr fired);
        applied
      end
      else begin
        let victim = pc + if stage_pick < 0.8 then 2 else 4 in
        let gate =
          Hashrand.to_u01
            (Hashrand.hash5 ~seed 5 width offset cycle attempt_nonce)
        in
        (if gate < landscapes.(i) *. back_stage_factor then
           match Board.word_at board victim with
           | None -> ()
           | Some victim_word ->
             incr fired;
             let planted =
               let plant_pick =
                 Hashrand.to_u01 (Hashrand.hash4 ~seed 6 width offset cycle)
               in
               if plant_pick < 0.4 then Board.As_nop
               else
                 Board.Fetch_word
                   (Susceptibility.corrupt_word ~width ~offset ~cycle victim_word)
             in
             pending := (victim, planted) :: List.remove_assoc victim !pending);
        Board.Normal
      end
  in
  let rec go () =
    let now = Board.cycles board in
    if now >= max_cycles then finish `Timeout
    else
      let n_edges = Board.edge_count board in
      match (!pending, baseline) with
      | [], Some b
        when !pristine
             && windows_dead entries 0 ~n_edges ~edge ~b_edges:b.b_edges ~now
        ->
        (* dead schedule on a pristine board: the continuation is the
           recorded unglitched run — replay its end state *)
        replayed := !replayed + (b.b_cycles - now);
        Board.apply_delta board b.b_end;
        finish b.b_stop
      | [], (Some _ | None) when windows_closed entries 0 ~n_edges ~edge ~now ->
        (* no window can open again and nothing is planted: no fault can
           apply, so the rest is a plain run, still emulated *)
        finish (Board.run_plain ~max_cycles board)
      | _ :: _, _ | [], _ -> (
        match Board.fetch board with
        | exception Machine.Memory.Fault (Unmapped a | Unaligned a) ->
          finish (`Stopped (Machine.Exec.Bad_fetch a))
        | instr -> (
          let pc = Board.pc board in
          let applied =
            match take_planted pending pc with
            | Board.Normal -> glitch instr ~pc
            | planted -> planted
          in
          (match applied with Board.Normal -> () | _ -> pristine := false);
          match Board.step_fetched board applied instr with
          | Machine.Exec.Running -> go ()
          | Machine.Exec.Stopped s -> finish (`Stopped s)))
  in
  go ()
