type result = {
  found : (int * int * int) option;
  attempts : int;
  successes : int;
  seconds : float;
  emulated_cycles : int;
  replayed_cycles : int;
}

let per_attempt_s = 0.095

(* The stride of the initial plane scan. *)
let coarse_step = 2

let search guard =
  let rig =
    Attack.rig_of_boot (Attack.boot_once (Attack.single_loop_program guard))
  in
  let successes = ref 0 in
  let try_once ~width ~offset ~ext_offset ~repeat ~nonce =
    let schedule =
      [ Glitcher.with_repeat (Glitcher.single ~width ~offset ~ext_offset) repeat ]
    in
    let obs = Attack.attempt ~nonce rig schedule in
    let ok = Attack.escaped (Attack.rig_board rig) obs in
    if ok then incr successes;
    ok
  in
  (* Phase 1: coarse scan with a glitch blanketing the whole loop. *)
  let candidates = ref [] in
  let width = ref (-49) in
  while !width <= 49 do
    let offset = ref (-49) in
    while !offset <= 49 do
      if try_once ~width:!width ~offset:!offset ~ext_offset:0
           ~repeat:Attack.loop_cycles ~nonce:0
      then candidates := (!width, !offset) :: !candidates;
      offset := !offset + coarse_step
    done;
    width := !width + coarse_step
  done;
  (* Phase 2: around each candidate, increase precision — explore the
     neighbourhood at full resolution, narrow to single cycles, and
     demand 10 consecutive successes (the paper's 10-out-of-10
     criterion). Failures abort a point early, so most probes cost one
     or two attempts. *)
  let in_range v = v >= -49 && v <= 49 in
  let ten_of_ten ~width ~offset ~ext_offset =
    let rec go nonce =
      if nonce > 10 then true
      else if try_once ~width ~offset ~ext_offset ~repeat:1 ~nonce then
        go (nonce + 1)
      else false
    in
    go 1
  in
  let rec refine = function
    | [] -> None
    | (w, o) :: rest ->
      let result = ref None in
      let dw = ref (-2) in
      while !result = None && !dw <= 2 do
        let doff = ref (-2) in
        while !result = None && !doff <= 2 do
          let width = w + !dw and offset = o + !doff in
          if in_range width && in_range offset then begin
            let cycle = ref 0 in
            while !result = None && !cycle < Attack.loop_cycles do
              if ten_of_ten ~width ~offset ~ext_offset:!cycle then
                result := Some (width, offset, !cycle);
              incr cycle
            done
          end;
          incr doff
        done;
        incr dw
      done;
      (match !result with Some triple -> Some triple | None -> refine rest)
  in
  let found = refine (List.rev !candidates) in
  let cost = Attack.tally rig in
  { found;
    attempts = cost.attempts;
    successes = !successes;
    seconds = float_of_int cost.attempts *. per_attempt_s;
    emulated_cycles = cost.emulated_cycles;
    replayed_cycles = cost.replayed_cycles }
