type scenario = Worst_case | Best_case

let scenario_name = function
  | Worst_case -> "while(!a)"
  | Best_case -> "if(a==SUCCESS)"

let scenario_source = function
  | Worst_case -> Firmware.guard_loop
  | Best_case -> Firmware.if_success

type attack = Single | Long | Windowed

let attack_name = function
  | Single -> "single"
  | Long -> "long"
  | Windowed -> "windowed(10)"

type outcome = {
  attempts : int;
  successes : int;
  detections : int;
  sweep : Hw.Attack.sweep;
}

let success_rate o =
  Stats.Rate.pct ~num:o.successes ~den:o.attempts

let detection_rate o =
  Stats.Rate.pct ~num:o.detections ~den:(o.detections + o.successes)

(* Schedules per attack, in (ext_offset, repeat) form. *)
let windows = function
  | Single -> List.init 11 (fun c -> (c, 1))
  | Long -> List.init 10 (fun i -> (0, 10 * (i + 1)))
  | Windowed -> List.init 11 (fun s -> (s, 10))

(* One row of the sweep: all offsets at a fixed (window, width), as
   (successes, detections). *)
let run_row ~sweep_step rig (ext_offset, repeat, width) =
  let board = Hw.Attack.rig_board rig in
  let successes = ref 0 and detections = ref 0 in
  let shape =
    [| Hw.Glitcher.with_repeat
         (Hw.Glitcher.single ~width:0 ~offset:0 ~ext_offset)
         repeat |]
  in
  let offset = ref (-49) in
  while !offset <= 49 do
    let (_ : Hw.Glitcher.observation) =
      Hw.Attack.attempt_point rig shape ~width ~offset:!offset
    in
    let marker = Hw.Board.read_global board Firmware.attack_marker_global in
    if marker = Some Firmware.attack_marker_value then incr successes
    else if Detect.detections (Hw.Board.read_global board) > 0 then
      incr detections;
    offset := !offset + sweep_step
  done;
  (!successes, !detections)

let rows_of attack ~sweep_step =
  List.concat_map
    (fun (ext_offset, repeat) ->
      let rec widths w acc =
        if w > 49 then List.rev acc
        else widths (w + sweep_step) ((ext_offset, repeat, w) :: acc)
      in
      widths (-49) [])
    (windows attack)

let run_image ?pool ?(sweep_step = 1) image attack =
  if sweep_step < 1 then invalid_arg "Evaluate.run_image: sweep_step < 1";
  (* enough budget after the trigger for the defended loop plus the
     spin-on-detection reaction to settle *)
  let boot =
    Hw.Attack.boot ~max_cycles:2_000_000 ~after_trigger:4_000
      (Hw.Board.Image image)
  in
  let counts, sweep =
    Hw.Attack.map_items ?pool ~boot (run_row ~sweep_step)
      (Array.of_list (rows_of attack ~sweep_step))
  in
  Array.fold_left
    (fun o (s, d) ->
      { o with successes = o.successes + s; detections = o.detections + d })
    { attempts = sweep.attempts; successes = 0; detections = 0; sweep }
    counts

let run ?pool ?sweep_step (config : Config.t) scenario attack =
  let compiled = Driver.compile config (scenario_source scenario) in
  run_image ?pool ?sweep_step compiled.image attack
