(* Differential oracles for generated programs.

   Three views of one program are cross-checked:

   - the source-level reference: [Ir.Interp] on the defended module,
     with builtins modelling the trigger GPIO and an observer
     collecting the volatile-I/O trace;
   - the architectural run: [Hw.Board] executing the linked image;
   - the static analyzers: [Analysis.Lint] / [Analysis.Surface] on the
     same image, checked against persistent-corruption campaigns. *)

type obs_event =
  | Vload of string * int
  | Vstore of string * int
  | Tcall of string  (** __trigger_high / __trigger_low, in order *)

let obs_event_to_string = function
  | Vload (n, v) -> Printf.sprintf "read %s -> %d" n v
  | Vstore (n, v) -> Printf.sprintf "write %s <- %d" n v
  | Tcall f -> f

type src_run = {
  ret : int;
  final_globals : (string * int) list;  (** every module global *)
  trace : obs_event list;
      (** volatile accesses to [watch]ed globals + trigger calls *)
  edges : int;  (** rising trigger edges *)
}

(* Interpret [modul]'s main with firmware builtins. [watch] restricts
   the volatile trace to the program's own volatile globals — defense
   passes add volatile machinery of their own (detector counter, delay
   seed, integrity shadows) that is not part of the source-observable
   behaviour. *)
let run_interp ?(fuel = 4_000_000) ~watch (modul : Ir.modul) :
    (src_run, string) result =
  let trace = ref [] in
  let edges = ref 0 in
  let gpio = ref 0 in
  let builtins =
    [ ("__trigger_high",
       fun _ ->
         if !gpio = 0 then incr edges;
         gpio := 1;
         0);
      ("__trigger_low", fun _ -> gpio := 0; 0);
      ("__halt", fun _ -> 0);
      ("__flash_commit", fun _ -> 0) ]
  in
  let observer (ev : Ir.Interp.event) =
    match ev with
    | Ir.Interp.Obs_load { name; value; volatile } ->
      if volatile && List.mem name watch then trace := Vload (name, value) :: !trace
    | Ir.Interp.Obs_store { name; value; volatile } ->
      if volatile && List.mem name watch then trace := Vstore (name, value) :: !trace
    | Ir.Interp.Obs_call { callee; _ } ->
      if callee = "__trigger_high" || callee = "__trigger_low" then
        trace := Tcall callee :: !trace
  in
  match Ir.Interp.run ~fuel ~builtins ~observer modul ~entry:"main" ~args:[] with
  | Error m -> Error m
  | Ok { ret = None; _ } -> Error "main returned void"
  | Ok { ret = Some r; globals } ->
    Ok { ret = Ir.mask32 r; final_globals = globals; trace = List.rev !trace;
         edges = !edges }

type arch_run = {
  stop : Machine.Exec.stop option;  (** [None] on timeout *)
  exit_code : int option;  (** R0 at the breakpoint stop *)
  arch_globals : (string * int) list;
  arch_edges : int;
  marker : int option;
  detections : int;
  cycles : int;
}

let run_board ?(max_cycles = 4_000_000) (modul : Ir.modul)
    (image : Lower.Layout.image) : arch_run =
  let board = Hw.Board.create (Hw.Board.Image image) in
  let stop =
    match Hw.Board.run_plain ~max_cycles board with
    | `Stopped s -> Some s
    | `Timeout -> None
  in
  let exit_code =
    match stop with
    | Some (Machine.Exec.Breakpoint _) -> Some (Hw.Board.reg board 0)
    | _ -> None
  in
  let arch_globals =
    List.filter_map
      (fun (g : Ir.global) ->
        Option.map (fun v -> (g.gname, v)) (Hw.Board.read_global board g.gname))
      modul.Ir.globals
  in
  { stop;
    exit_code;
    arch_globals;
    arch_edges = List.length (Hw.Board.trigger_edges board);
    marker = Hw.Board.read_global board Resistor.Firmware.attack_marker_global;
    detections = Resistor.Detect.detections (Hw.Board.read_global board);
    cycles = Hw.Board.cycles board }

(* ------------------------------------------------------------------ *)
(* persistent flash corruption                                         *)

let corrupt_image (image : Lower.Layout.image) ~addr ~mask =
  let index = (addr - image.text.base) / 2 in
  if index < 0 || index >= Array.length image.words then
    invalid_arg "corrupt_image: address outside .text";
  let words = Array.copy image.words in
  words.(index) <- words.(index) lxor mask land 0xFFFF;
  { image with words }

(* Outcome of one corrupted boot, classified by two independent
   oracles: the stop reason (Campaign's taxonomy) and the firmware's
   memory state (Attack/Evaluate's marker + detection counters). *)
type glitch_outcome = {
  g_addr : int;
  g_mask : int;
  category : Glitch_emu.Campaign.category;
  succeeded : bool;  (** marker holds the attack value *)
  detected : bool;  (** the detector counter advanced *)
}

let silent o = o.succeeded && not o.detected

let run_corrupted ~budget (image : Lower.Layout.image) ~addr ~mask :
    glitch_outcome =
  let image' = corrupt_image image ~addr ~mask in
  let board = Hw.Board.create (Hw.Board.Image image') in
  let stop =
    match Hw.Board.run_plain ~max_cycles:budget board with
    | `Stopped s -> Some s
    | `Timeout -> None
  in
  let marker = Hw.Board.read_global board Resistor.Firmware.attack_marker_global in
  { g_addr = addr;
    g_mask = mask;
    (* a run off its budget is Failed *)
    category =
      Option.fold ~none:Glitch_emu.Campaign.Failed
        ~some:Glitch_emu.Campaign.category_of_stop stop;
    succeeded = marker = Some Resistor.Firmware.attack_marker_value;
    detected = Resistor.Detect.detections (Hw.Board.read_global board) > 0 }

(* The masks worth sweeping on a conditional branch: every single-bit
   direction flip and guard escape the static profile identifies, plus
   their pairwise XORs (the 2-bit combinations of interesting flips).

   Pair masks are kept inside the paper's threat model. A pair of two
   direction bits still encodes the same conditional branch with the
   same offset; a pair involving an escape bit is kept only when the
   perturbed word no longer diverts control (a true straight-line
   escape) or has no decoding at all. Dropping the rest matters: two
   flips can rewrite [b<cc>] into an {e unconditional} branch whose
   offset field absorbs the old condition bits — an arbitrary
   retargeting jump, i.e. the control-flow-integrity attack class the
   paper's defenses explicitly do not claim to stop (Table VII). *)
let guard_masks ~word (profile : Analysis.Surface.profile) =
  let dirs = profile.direction_masks and escs = profile.escape_masks in
  let ones = dirs @ escs in
  let in_model mask =
    let w = (word lxor mask) land 0xFFFF in
    Thumb.Decode.is_undefined w
    || not (Analysis.Surface.diverts (Thumb.Decode.of_word w))
  in
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a >= b then None
            else if (List.mem a dirs && List.mem b dirs) || in_model (a lxor b)
            then Some (a lxor b)
            else None)
          ones)
      ones
  in
  List.sort_uniq compare (ones @ pairs)

(* Boot the pristine image to its trigger edge and derive a cycle
   budget that covers boot plus a post-trigger settling window. *)
let boot_budget ?(slack = 8_000) (image : Lower.Layout.image) =
  let board = Hw.Board.create (Hw.Board.Image image) in
  if not (Hw.Board.run_until_trigger ~max_cycles:2_000_000 board) then None
  else Some (Hw.Board.cycles board + slack)
