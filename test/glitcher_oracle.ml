(* The reference glitcher: the attempt loop [Hw.Glitcher.run] ran before
   its board-leg cycle was made allocation-free, kept as the oracle of
   the fast one. It draws through the list form of [Hashrand], computes
   each entry's landscape from scratch once per attempt, fetches every
   instruction twice ([Board.peek], then [Board.step]), and emulates
   every cycle to the end: no dead-schedule cutoff and no plain tail.
   Run it on a never-sealed board, so every attempt starts with a
   whole-image restore. *)

open Hw

let active_window (schedule : Glitcher.params list) edges ~start ~duration =
  let best =
    List.fold_left
      (fun acc (p : Glitcher.params) ->
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

let concretise ~salt (instr : Thumb.Instr.t)
    (effect : Susceptibility.effect) : Board.applied * bool =
  let width, offset, cycle =
    match salt with
    | [ width; offset; cycle ] -> (width, offset, cycle)
    | _ -> invalid_arg "Glitcher_oracle.concretise: salt"
  in
  match effect with
  | Susceptibility.No_fault -> (Board.Normal, false)
  | Susceptibility.Skip -> (Board.As_nop, true)
  | Susceptibility.Corrupt_fetch ->
    let word = Thumb.Encode.instr instr in
    let word' = Susceptibility.corrupt_word ~width ~offset ~cycle word in
    if word' = word then (Board.Normal, false)
    else (Board.Fetch_word word', true)
  | Susceptibility.Load_residue v -> (Board.Load_value v, true)
  | Susceptibility.Load_bitflip -> (Board.Load_mangle { width; offset; cycle }, true)
  | Susceptibility.Flip_z -> (Board.Z_flip, true)
  | Susceptibility.Pc_corrupt ->
    let bogus =
      0x1000 + (2 * Hashrand.bits ~seed:Susceptibility.seed (8 :: salt) ~width:16)
    in
    (Board.Pc_set bogus, true)

let back_stage_factor = 0.55

let run ~max_cycles ?(nonce = 0) ~from board
    (schedule : Glitcher.params list) : Glitcher.observation =
  Board.restore board from;
  let replayed = Board.cycles board in
  let fired = ref 0 and glitched = ref 0 in
  let pending : (int, Board.applied) Hashtbl.t = Hashtbl.create 4 in
  let landscapes =
    List.map
      (fun (p : Glitcher.params) ->
        ( p,
          Susceptibility.landscape_direct ~width:p.width ~offset:p.offset ))
      schedule
  in
  let finish stop : Glitcher.observation =
    { stop;
      cycles = Board.cycles board;
      fired = !fired;
      glitched_cycles = !glitched;
      replayed_cycles = replayed;
      tail_cycles = 0 }
  in
  let rec go () =
    if Board.cycles board >= max_cycles then finish `Timeout
    else
      let edges = Board.trigger_edges board in
      match Board.peek board with
      | Error stop -> finish (`Stopped stop)
      | Ok instr -> (
        let pc = Board.pc board in
        let duration = Board.instr_duration board instr in
        let applied =
          match Hashtbl.find_opt pending pc with
          | Some planted ->
            Hashtbl.remove pending pc;
            planted
          | None -> (
            match
              active_window schedule edges ~start:(Board.cycles board) ~duration
            with
            | None -> Board.Normal
            | Some (p, rel_cycle) ->
              incr glitched;
              let e = List.assq p landscapes in
              let point_salt = [ p.width; p.offset; rel_cycle ] in
              let attempt_nonce = (nonce * 31) + p.trigger_index in
              let stage_pick =
                Hashrand.u01 ~seed:Susceptibility.seed (4 :: point_salt)
              in
              if stage_pick < 0.5 then begin
                let effect =
                  Susceptibility.roll ~sustained:(p.repeat > 4)
                    ~landscape:e ~width:p.width ~offset:p.offset
                    ~cycle:rel_cycle ~nonce:attempt_nonce ~instr
                    ~sp:(Board.reg board 13)
                in
                let applied, did_fire =
                  concretise ~salt:point_salt instr effect
                in
                if did_fire then incr fired;
                applied
              end
              else begin
                let delta = if stage_pick < 0.8 then 2 else 4 in
                let victim = pc + delta in
                let gate =
                  Hashrand.u01 ~seed:Susceptibility.seed
                    (5 :: p.width :: p.offset :: rel_cycle :: [ attempt_nonce ])
                in
                (if gate < e *. back_stage_factor then
                   match Board.word_at board victim with
                   | None -> ()
                   | Some victim_word ->
                     incr fired;
                     let planted =
                       if Hashrand.u01 ~seed:Susceptibility.seed (6 :: point_salt) < 0.4
                       then Board.As_nop
                       else
                         Board.Fetch_word
                           (Susceptibility.corrupt_word ~width:p.width
                              ~offset:p.offset ~cycle:rel_cycle victim_word)
                     in
                     Hashtbl.replace pending victim planted);
                Board.Normal
              end)
        in
        match Board.step ~applied board with
        | Machine.Exec.Running -> go ()
        | Machine.Exec.Stopped s -> finish (`Stopped s))
  in
  go ()
