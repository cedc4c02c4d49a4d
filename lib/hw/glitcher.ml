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

(* Does any armed window overlap [start, start+duration)? If so, return
   (params, relative_cycle) for the earliest *absolute* overlapping
   cycle. Ties between windows anchored to different trigger edges must
   compare absolute cycles: comparing [lo - edge] across edges (as an
   earlier version did) could resolve a multi-trigger schedule to the
   later window just because its own trigger fired more recently. *)
let active_window schedule edges ~start ~duration =
  let best =
    List.fold_left
      (fun acc p ->
        match List.nth_opt edges p.trigger_index with
        | None -> acc
        | Some edge ->
          let w_lo = edge + p.ext_offset in
          let w_hi = w_lo + p.repeat in
          let lo = max w_lo start and hi = min w_hi (start + duration) in
          if lo < hi then
            match acc with
            | Some (_, _, best_abs) when best_abs <= lo -> acc
            | Some _ | None -> Some (p, lo - edge, lo)
          else acc)
      None schedule
  in
  Option.map (fun (p, rel, _) -> (p, rel)) best

let concretise config ~salt (instr : Thumb.Instr.t)
    (effect : Susceptibility.effect) : Board.applied * bool =
  match effect with
  | Susceptibility.No_fault -> (Board.Normal, false)
  | Susceptibility.Skip -> (Board.As_nop, true)
  | Susceptibility.Corrupt_fetch ->
    let word = Thumb.Encode.instr instr in
    let word' = Susceptibility.corrupt_word config ~salt word in
    if word' = word then (Board.Normal, false) else (Board.Fetch_word word', true)
  | Susceptibility.Load_residue v -> (Board.Load_value v, true)
  | Susceptibility.Load_bitflip ->
    (Board.Load_mangle (fun v -> Susceptibility.corrupt_value32 config ~salt v), true)
  | Susceptibility.Flip_z -> (Board.Z_flip, true)
  | Susceptibility.Pc_corrupt ->
    (* corrupting the prefetch address sends the core into unmapped or
       unintended memory; derive a deterministic bogus target *)
    let bogus =
      0x1000 + (2 * Hashrand.bits ~seed:config.seed (8 :: salt) ~width:16)
    in
    (Board.Pc_set bogus, true)

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
  let stop =
    let rec go () =
      if Board.cycles board >= max_cycles then `Timeout
      else
        match Board.step board with
        | Machine.Exec.Running -> go ()
        | Machine.Exec.Stopped s -> `Stopped s
    in
    go ()
  in
  { b_max_cycles = max_cycles;
    b_from_cycles = from_cycles;
    b_stop = stop;
    b_end = Board.delta board;
    b_cycles = Board.cycles board;
    b_edges = List.length (Board.trigger_edges board) }

(* Every window is dead: anchored to a seen edge and entirely in the
   past, or anchored to an edge index the unglitched continuation never
   produces. A window waiting on an edge that *will* arrive unglitched
   (index < b_edges) may still open, so it blocks the cutoff. *)
let windows_dead schedule ~edges ~n_edges ~b_edges ~now =
  List.for_all
    (fun p ->
      if p.trigger_index < n_edges then
        match List.nth_opt edges p.trigger_index with
        | Some edge -> edge + p.ext_offset + p.repeat <= now
        | None -> false
      else p.trigger_index >= b_edges)
    schedule

let run ?(config = Susceptibility.default) ?(max_cycles = 3_000) ?(nonce = 0)
    ?from ?baseline board schedule =
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
  let fired = ref 0 and glitched = ref 0 in
  (* true while no fault has been applied to any step: the execution so
     far is bit-identical to the unglitched run *)
  let pristine = ref true in
  (* Corruption planted in the decode/fetch stages materialises when the
     victim address is reached. A branch in between flushes the pipeline
     and the planted corruption with it: the entry is simply never
     consumed (and is dropped at the next plant). *)
  let pending : (int, Board.applied) Hashtbl.t = Hashtbl.create 4 in
  (* each entry's landscape, computed once per attempt *)
  let landscapes =
    List.map
      (fun p ->
        (p, Susceptibility.landscape config ~width:p.width ~offset:p.offset))
      schedule
  in
  let finish stop =
    { stop;
      cycles = Board.cycles board;
      fired = !fired;
      glitched_cycles = !glitched;
      replayed_cycles = !replayed }
  in
  let rec go () =
    if Board.cycles board >= max_cycles then finish `Timeout
    else
      let edges = Board.trigger_edges board in
      match baseline with
      | Some b
        when !pristine
             && Hashtbl.length pending = 0
             && windows_dead schedule ~edges ~n_edges:(List.length edges)
                  ~b_edges:b.b_edges ~now:(Board.cycles board) ->
        (* dead schedule on a pristine board: the continuation is the
           recorded unglitched run — replay its end state *)
        replayed := !replayed + (b.b_cycles - Board.cycles board);
        Board.apply_delta board b.b_end;
        finish b.b_stop
      | Some _ | None -> (
        match Board.peek board with
        | Error stop -> finish (`Stopped stop)
        | Ok instr -> (
          let pc = Board.pc board in
          (* overlap is tested against the cycles the instruction will
             actually consume: a not-taken branch occupies 1 cycle, so a
             glitch must not fire in the 2 phantom cycles of the taken
             duration (they never elapse — Board.step advances by the
             actual cost) *)
          let duration = Board.instr_duration board instr in
          let applied =
            match Hashtbl.find_opt pending pc with
            | Some planted ->
              Hashtbl.remove pending pc;
              planted
            | None -> (
              match
                active_window schedule edges ~start:(Board.cycles board)
                  ~duration
              with
              | None -> Board.Normal
              | Some (p, rel_cycle) ->
                incr glitched;
                let e = List.assq p landscapes in
                let point_salt = [ p.width; p.offset; rel_cycle ] in
                let attempt_nonce = (nonce * 31) + p.trigger_index in
                (* Which of the Cortex-M0's three pipeline stages does the
                   glitch disturb? Decode and fetch hold the next two
                   instructions. *)
                let stage_pick = Hashrand.u01 ~seed:config.seed (4 :: point_salt) in
                if stage_pick < 0.5 then begin
                  let effect =
                    Susceptibility.roll config ~sustained:(p.repeat > 4)
                      ~landscape:e ~width:p.width ~offset:p.offset
                      ~cycle:rel_cycle ~nonce:attempt_nonce ~instr
                      ~sp:(Board.reg board 13)
                  in
                  let applied, did_fire =
                    concretise config ~salt:point_salt instr effect
                  in
                  if did_fire then incr fired;
                  applied
                end
                else begin
                  let delta = if stage_pick < 0.8 then 2 else 4 in
                  let victim = pc + delta in
                  let gate =
                    Hashrand.u01 ~seed:config.seed
                      (5 :: p.width :: p.offset :: rel_cycle :: [ attempt_nonce ])
                  in
                  (if gate < e *. back_stage_factor then
                     match Board.word_at board victim with
                     | None -> ()
                     | Some victim_word ->
                       incr fired;
                       let planted =
                         if Hashrand.u01 ~seed:config.seed (6 :: point_salt) < 0.4
                         then Board.As_nop
                         else
                           Board.Fetch_word
                             (Susceptibility.corrupt_word config ~salt:point_salt
                                victim_word)
                       in
                       Hashtbl.replace pending victim planted);
                  Board.Normal
                end)
          in
          if applied <> Board.Normal then pristine := false;
          match Board.step ~applied board with
          | Machine.Exec.Running -> go ()
          | Machine.Exec.Stopped s -> finish (`Stopped s)))
  in
  go ()
