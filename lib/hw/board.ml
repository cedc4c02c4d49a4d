type program = Asm of string | Image of Lower.Layout.image

let layout = Machine.Loader.stm32_layout
let flash_base = layout.flash_base

(* A 256-byte GPIO block holding the trigger data register. *)
let gpio_base = Lower.Codegen.gpio_trigger_address land lnot 0xFF
let gpio_data = Lower.Codegen.gpio_trigger_address - gpio_base

(* Everything but memory: what a journal rewind copies back wholesale. *)
type scalars = {
  s_cpu : Machine.Cpu.t;
  s_cycles : int;
  s_edges : int array;  (* exactly the edges raised, oldest first *)
  s_pending : bool;
  s_gpio : int;
}

type snapshot = { s_mem : Machine.Memory.snapshot; s_scalars : scalars }

(* A sealed board tracks every RAM store since it last stood at
   [sealed]; undoing the whole journal puts memory back there. A
   whole-image reset or restore bypasses the journal, so it detaches it
   ([tracker = None]) and the next rewind re-blits once and seals a
   fresh tracker. *)
type seal = {
  sealed : snapshot;
  mutable tracker : Machine.State.t option;
}

type t = {
  mem : Machine.Memory.t;
  cpu : Machine.Cpu.t;
  mutable cycles : int;
  mutable edges : int array;  (* [edges.(i)], i < [n_edges]: oldest first *)
  mutable n_edges : int;
  edge_pending : bool ref;
  gpio_state : int ref;
  mutable seal : seal option;
  program : program;
  text : bytes;  (* encoded program image *)
  data_init : (int * int) list;
  entry : int;
  stack_top : int;
}

let text_of_program = function
  | Asm source -> Thumb.Encode.to_bytes (Thumb.Asm.assemble source)
  | Image image -> Lower.Layout.text_bytes image

(* Deterministic "boot garbage" for the stack area: a real SRAM powers
   up with residual values, so a corrupted address computation that
   lands in the stack loads varied small bytes, not zero. The
   hand-written Table I-III loops never read it; the linked Table VI
   firmware does, and its goldens depend on this pattern. *)
let fill_stack mem ~stack_top =
  let pattern = [| 0x55; 0x00; 0x68; 0xFF; 0x08; 0x00; 0x55; 0x01 |] in
  for i = 0 to 255 do
    let addr = stack_top - 256 + i in
    match Machine.Memory.write_u8 mem addr pattern.(i land 7) with
    | Ok () -> ()
    | Error _ -> ()
  done

let load_image t =
  Machine.Memory.clear t.mem;
  Machine.Memory.load_bytes t.mem ~addr:flash_base t.text;
  List.iter
    (fun (addr, v) ->
      match Machine.Memory.write_u32 t.mem addr v with
      | Ok () -> ()
      | Error _ -> invalid_arg "Board: data init outside RAM")
    t.data_init;
  fill_stack t.mem ~stack_top:t.stack_top

let unjournal t =
  match t.seal with
  | Some s ->
    Machine.Memory.detach_journal t.mem;
    s.tracker <- None
  | None -> ()

let reset t =
  unjournal t;
  load_image t;
  Machine.Cpu.reset ~sp:t.stack_top ~pc:t.entry t.cpu;
  t.cycles <- 0;
  t.n_edges <- 0;
  t.edge_pending := false;
  t.gpio_state := 0

(* The SP the paper reports for its hand-written guard loops. *)
let asm_stack_top = 0x20003FE8

let create program =
  let mem = Machine.Memory.create () in
  Machine.Memory.map mem ~addr:flash_base ~size:layout.flash_size;
  Machine.Memory.map mem ~addr:layout.sram_base ~size:layout.sram_size;
  let edge_pending = ref false in
  let gpio_state = ref 0 in
  Machine.Memory.add_device mem ~addr:gpio_base ~size:0x100
    ~read:(fun off -> if off = gpio_data then !gpio_state else 0)
    ~write:(fun off v ->
      if off = gpio_data then begin
        let bit = v land 1 in
        if bit = 1 && !gpio_state = 0 then edge_pending := true;
        gpio_state := bit
      end);
  let data_init, entry, stack_top =
    match program with
    | Asm _ -> ([], flash_base, asm_stack_top)
    | Image image ->
      (image.Lower.Layout.data_init, image.Lower.Layout.entry,
       image.Lower.Layout.stack_top)
  in
  let t =
    { mem;
      cpu = Machine.Cpu.create ();
      cycles = 0;
      edges = Array.make 4 0;
      n_edges = 0;
      edge_pending;
      gpio_state;
      seal = None;
      program;
      text = text_of_program program;
      data_init;
      entry;
      stack_top }
  in
  reset t;
  t

let cycles t = t.cycles
let pc t = t.cpu.regs.(15)
let reg t n = Machine.Exec.get t.cpu (Thumb.Reg.of_int n)
let edge_count t = t.n_edges
let edge t i =
  if i < 0 || i >= t.n_edges then invalid_arg "Board.edge";
  t.edges.(i)
let trigger_edges t = Array.to_list (Array.sub t.edges 0 t.n_edges)

let read_global t name =
  match t.program with
  | Asm _ -> None
  | Image image -> (
    match List.assoc_opt name image.Lower.Layout.global_addrs with
    | None -> None
    | Some addr -> (
      match Machine.Memory.read_u32 t.mem addr with
      | Ok v -> Some v
      | Error _ -> None))

let symbol t name =
  match t.program with
  | Asm _ -> None
  | Image image -> List.assoc_opt name image.Lower.Layout.symbols

type applied =
  | Normal
  | As_nop
  | Fetch_word of int
  | Load_value of int
  | Load_mangle of { width : int; offset : int; cycle : int }
  | Z_flip
  | Pc_set of int

let word_at t addr =
  match Machine.Memory.read_u16 t.mem addr with Ok w -> Some w | Error _ -> None

let fetch t = Thumb.Decode.table.(Machine.Memory.fetch_u16_exn t.mem (pc t))

let peek t =
  match fetch t with
  | instr -> Ok instr
  | exception Machine.Memory.Fault (Unmapped a | Unaligned a) ->
    Error (Machine.Exec.Bad_fetch a)

let load_destination (i : Thumb.Instr.t) : Thumb.Reg.t option =
  match i with
  | Ldr_pc (rd, _) -> Some rd
  | Mem_reg { load = true; rd; _ }
  | Mem_imm { load = true; rd; _ }
  | Mem_half { load = true; rd; _ }
  | Mem_sp { load = true; rd; _ } -> Some rd
  | Mem_sign { op = LDSB | LDRH | LDSH; rd; _ } -> Some rd
  | Mem_sign { op = STRH; _ } | Mem_reg _ | Mem_imm _ | Mem_half _ | Mem_sp _
  | Shift _ | Add_sub _ | Imm _ | Alu _ | Hi_add _ | Hi_cmp _ | Hi_mov _
  | Bx _ | Load_addr _ | Sp_adjust _ | Push _ | Pop _ | Stmia _ | Ldmia _
  | B_cond _ | Swi _ | B _ | Bl_hi _ | Bl_lo _ | Bkpt _ | Undefined _ -> None

let record_edge t =
  let n = t.n_edges in
  if n = Array.length t.edges then begin
    let bigger = Array.make (2 * n) 0 in
    Array.blit t.edges 0 bigger 0 n;
    t.edges <- bigger
  end;
  t.edges.(n) <- t.cycles;
  t.n_edges <- n + 1

(* A rising edge raised during a step is stamped with the cycle after
   it: call this once the step's cycles are booked. *)
let[@inline] stamp_edge t =
  if !(t.edge_pending) then begin
    record_edge t;
    t.edge_pending := false
  end

let finish_step t ~duration result =
  t.cycles <- t.cycles + duration;
  stamp_edge t;
  result

(* Execute and advance the cycle counter by what actually ran: a
   conditional branch costs its taken duration only if the PC moved
   somewhere other than the next instruction. *)
let execute_counted t instr =
  let pc_before = pc t in
  let result = Machine.Exec.execute t.mem t.cpu instr in
  let taken =
    match result with
    | Machine.Exec.Running -> pc t <> pc_before + 2
    | Machine.Exec.Stopped _ -> false
  in
  finish_step t ~duration:(Thumb.Cycles.of_instr ~taken instr) result

(* Predict, before executing, how many cycles [instr] will consume if it
   runs unglitched: the branch direction is decided by the current flags.
   Must agree with [execute_counted]'s post-hoc accounting — including
   the degenerate branch-to-next-instruction case, which the counter sees
   as not taken because the PC ends up at [pc + 2] either way. *)
let instr_duration t (instr : Thumb.Instr.t) =
  let taken =
    match instr with
    | Thumb.Instr.B_cond (cond, off) ->
      off <> -1 && Machine.Exec.condition_holds t.cpu cond
    | _ -> true
  in
  Thumb.Cycles.of_instr ~taken instr

let step_fetched t applied instr =
  match applied with
  | Normal -> execute_counted t instr
  | As_nop ->
    Machine.Exec.set_pc t.cpu (pc t + 2);
    finish_step t ~duration:1 Machine.Exec.Running
  | Fetch_word w -> execute_counted t Thumb.Decode.table.(w)
  | Load_value v ->
    let result = execute_counted t instr in
    (match (result, load_destination instr) with
    | Machine.Exec.Running, Some rd -> Machine.Exec.set t.cpu rd v
    | (Machine.Exec.Running | Machine.Exec.Stopped _), _ -> ());
    result
  | Load_mangle { width; offset; cycle } ->
    let result = execute_counted t instr in
    (match (result, load_destination instr) with
    | Machine.Exec.Running, Some rd ->
      Machine.Exec.set t.cpu rd
        (Susceptibility.corrupt_value32 ~width ~offset ~cycle
           (Machine.Exec.get t.cpu rd))
    | (Machine.Exec.Running | Machine.Exec.Stopped _), _ -> ());
    result
  | Z_flip ->
    let result = execute_counted t instr in
    (match result with
    | Machine.Exec.Running -> t.cpu.Machine.Cpu.z <- not t.cpu.Machine.Cpu.z
    | Machine.Exec.Stopped _ -> ());
    result
  | Pc_set target ->
    Machine.Exec.set_pc t.cpu target;
    finish_step t ~duration:1 Machine.Exec.Running

let step ?(applied = Normal) t =
  match fetch t with
  | instr -> step_fetched t applied instr
  | exception Machine.Memory.Fault (Unmapped a | Unaligned a) ->
    Machine.Exec.Stopped (Machine.Exec.Bad_fetch a)

(* [step] with no fault, unrolled into a top-level loop under one
   handler for the whole run (a fetch fault, or a data access's
   [Stop_exn]) instead of one per instruction. The cycles are booked
   before the instruction runs, from [instr_duration]: nothing an
   instruction does reads the counter, and the duration is the one
   [execute_counted] books, also for a step that stops (only a
   conditional branch's cost depends on [taken], and a branch never
   stops). *)
let rec plain_loop t max_cycles =
  if t.cycles >= max_cycles then `Timeout
  else begin
    let instr = fetch t in
    t.cycles <- t.cycles + instr_duration t instr;
    let result = Machine.Exec.execute_exn t.mem t.cpu instr in
    stamp_edge t;
    match result with
    | Machine.Exec.Running -> plain_loop t max_cycles
    | Machine.Exec.Stopped s -> `Stopped s
  end

let run_plain_to t max_cycles =
  match plain_loop t max_cycles with
  | stop -> stop
  | exception Machine.Memory.Fault (Unmapped a | Unaligned a) ->
    `Stopped (Machine.Exec.Bad_fetch a)
  | exception Machine.Exec.Stop_exn s ->
    stamp_edge t;
    `Stopped s

let run_plain ?(max_cycles = 1_000_000) t = run_plain_to t max_cycles

let run_until_trigger ?(max_cycles = 1_000_000) t =
  let rec go () =
    if t.cycles >= max_cycles then false
    else if t.n_edges > 0 then true
    else
      match step t with
      | Machine.Exec.Running -> go ()
      | Machine.Exec.Stopped _ -> false
  in
  go ()

let scalars t =
  { s_cpu = Machine.Cpu.copy t.cpu;
    s_cycles = t.cycles;
    s_edges = Array.sub t.edges 0 t.n_edges;
    s_pending = !(t.edge_pending);
    s_gpio = !(t.gpio_state) }

(* In place: a rewind allocates nothing, and the shared source is only
   read. Plain loops: the copies are 16 registers and a few edges, less
   than a call to the blit primitive costs. *)
let set_scalars t s =
  let cpu = t.cpu and src = s.s_cpu in
  for i = 0 to 15 do
    cpu.regs.(i) <- src.regs.(i)
  done;
  cpu.n <- src.n;
  cpu.z <- src.z;
  cpu.c <- src.c;
  cpu.v <- src.v;
  t.cycles <- s.s_cycles;
  let n = Array.length s.s_edges in
  if n > Array.length t.edges then t.edges <- Array.make (2 * n) 0;
  for i = 0 to n - 1 do
    t.edges.(i) <- s.s_edges.(i)
  done;
  t.n_edges <- n;
  t.edge_pending := s.s_pending;
  t.gpio_state := s.s_gpio

let snapshot t =
  { s_mem = Machine.Memory.snapshot t.mem; s_scalars = scalars t }

let restore t snap =
  unjournal t;
  Machine.Memory.restore t.mem snap.s_mem;
  set_scalars t snap.s_scalars

let rewind t snap =
  match t.seal with
  | Some s when s.sealed == snap ->
    (match s.tracker with
    | Some st -> Machine.State.undo_to st 0
    | None ->
      Machine.Memory.restore t.mem snap.s_mem;
      s.tracker <- Some (Machine.State.seal ~mem:t.mem ~cpu:t.cpu));
    set_scalars t snap.s_scalars
  | Some _ | None -> restore t snap

let seal t snap =
  t.seal <- Some { sealed = snap; tracker = None };
  rewind t snap

let journal_length t =
  match t.seal with
  | Some { tracker = Some st; _ } -> Machine.State.mark st
  | Some { tracker = None; _ } | None -> 0

(* [written] is [Machine.State.written] at capture. *)
type delta = { written : int array; d_scalars : scalars }

let delta t =
  match t.seal with
  | Some { tracker = Some st; _ } ->
    { written = Machine.State.written st; d_scalars = scalars t }
  | Some { tracker = None; _ } | None ->
    invalid_arg "Board.delta: board not sealed"

let written d = d.written

let apply_delta t d =
  let w = d.written in
  for i = 0 to Array.length w - 1 do
    Machine.Memory.write_u8_exn t.mem (w.(i) lsr 16) (w.(i) land 0xFF)
  done;
  set_scalars t d.d_scalars
