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

type outcome = { attempts : int; successes : int; detections : int }

let no_outcome = { attempts = 0; successes = 0; detections = 0 }

let add_outcome a b =
  { attempts = a.attempts + b.attempts;
    successes = a.successes + b.successes;
    detections = a.detections + b.detections }

let success_rate o =
  Stats.Rate.pct ~num:o.successes ~den:o.attempts

let detection_rate o =
  Stats.Rate.pct ~num:o.detections ~den:(o.detections + o.successes)

(* Schedules per attack, in (ext_offset, repeat) form. *)
let windows = function
  | Single -> List.init 11 (fun c -> (c, 1))
  | Long -> List.init 10 (fun i -> (0, 10 * (i + 1)))
  | Windowed -> List.init 11 (fun s -> (s, 10))

(* Boot the firmware to its trigger and snapshot: the pre-attack state
   every attempt rewinds to. Deterministic, so each worker domain can
   rebuild an identical board from the shared image. *)
let boot_board image =
  let board = Hw.Board.create (Hw.Board.Image image) in
  if not (Hw.Board.run_until_trigger ~max_cycles:2_000_000 board) then
    invalid_arg "Evaluate.run: firmware never raised its trigger";
  let snap = Hw.Board.snapshot board in
  (* enough budget after the trigger for the defended loop plus the
     spin-on-detection reaction to settle *)
  let max_cycles = Hw.Board.cycles board + 4_000 in
  (board, snap, max_cycles)

(* One row of the sweep: all offsets at a fixed (window, width). The
   attempt outcome depends only on the snapshot and the schedule, so
   rows can run on any domain in any order. *)
let run_row ?fault_config ~sweep_step (board, snap, max_cycles) (ext_offset, repeat, width)
    =
  let attempts = ref 0 and successes = ref 0 and detections = ref 0 in
  let offset = ref (-49) in
  while !offset <= 49 do
    incr attempts;
    let schedule =
      [ Hw.Glitcher.with_repeat
          (Hw.Glitcher.single ~width ~offset:!offset ~ext_offset)
          repeat ]
    in
    let (_ : Hw.Glitcher.observation) =
      Hw.Glitcher.run ?config:fault_config ~max_cycles ~from:snap board schedule
    in
    let marker = Hw.Board.read_global board Firmware.attack_marker_global in
    let succeeded = marker = Some Firmware.attack_marker_value in
    if succeeded then incr successes
    else if Detect.detections (Hw.Board.read_global board) > 0 then
      incr detections;
    offset := !offset + sweep_step
  done;
  { attempts = !attempts; successes = !successes; detections = !detections }

let rows_of attack ~sweep_step =
  List.concat_map
    (fun (ext_offset, repeat) ->
      let rec widths w acc =
        if w > 49 then List.rev acc
        else widths (w + sweep_step) ((ext_offset, repeat, w) :: acc)
      in
      widths (-49) [])
    (windows attack)

(* Rows are claimed one at a time, each worker attacking its own
   booted board, and the per-worker outcomes are summed — an
   order-independent reduction, so the counts are the same at every job
   count. *)
let run_image ?pool ?fault_config ?(sweep_step = 1) image attack =
  if sweep_step < 1 then invalid_arg "Evaluate.run_image: sweep_step < 1";
  let rows = Array.of_list (rows_of attack ~sweep_step) in
  Runtime.Pool.drain ?pool ~size:1 ~lo:0 ~hi:(Array.length rows)
    ~init:(fun () -> (boot_board image, ref no_outcome))
    (fun (rig, acc) i _ ->
      acc := add_outcome !acc (run_row ?fault_config ~sweep_step rig rows.(i)))
  |> List.fold_left (fun o (_, acc) -> add_outcome o !acc) no_outcome

let run ?pool ?fault_config ?sweep_step (config : Config.t) scenario attack =
  let compiled = Driver.compile config (scenario_source scenario) in
  run_image ?pool ?fault_config ?sweep_step compiled.image attack
