type stop =
  | Breakpoint of int
  | Swi_trap of int
  | Bad_read of int
  | Bad_write of int
  | Bad_fetch of int
  | Invalid_instruction of int
  | Step_limit

let pp_stop ppf = function
  | Breakpoint n -> Fmt.pf ppf "breakpoint #%d" n
  | Swi_trap n -> Fmt.pf ppf "swi #%d" n
  | Bad_read a -> Fmt.pf ppf "bad read at 0x%08x" a
  | Bad_write a -> Fmt.pf ppf "bad write at 0x%08x" a
  | Bad_fetch a -> Fmt.pf ppf "bad fetch at 0x%08x" a
  | Invalid_instruction w -> Fmt.pf ppf "invalid instruction 0x%04x" w
  | Step_limit -> Fmt.string ppf "step limit exhausted"

(* Only the exact printed form parses back. *)
let stop_of_string s =
  let scan fmt k = Scanf.sscanf_opt s fmt k in
  match
    List.find_map Fun.id
      [ scan "breakpoint #%d%!" (fun n -> Breakpoint n);
        scan "swi #%d%!" (fun n -> Swi_trap n);
        scan "bad read at 0x%x%!" (fun a -> Bad_read a);
        scan "bad write at 0x%x%!" (fun a -> Bad_write a);
        scan "bad fetch at 0x%x%!" (fun a -> Bad_fetch a);
        scan "invalid instruction 0x%x%!" (fun w -> Invalid_instruction w);
        (if s = "step limit exhausted" then Some Step_limit else None) ]
  with
  | Some stop when String.equal (Fmt.str "%a" pp_stop stop) s -> Some stop
  | Some _ | None -> None

let stop_equal (a : stop) (b : stop) = a = b

type step_result = Running | Stopped of stop

(* The hot path must not allocate: a stop is the rare case, so it
   travels as an exception and is caught once at the top of [execute].
   Memory faults arrive as [Memory.Fault] and are reclassified at the
   access site (loads become [Bad_read], stores [Bad_write]), exactly
   like the old [Result] protocol but without boxing an [Ok] per
   access. *)
exception Stop_exn of stop

let mask32 v = v land 0xFFFFFFFF
let bit31 v = v land 0x80000000 <> 0

open Thumb

(* Register file ----------------------------------------------------------- *)

(* Inlined into the executor, so an operand read or a result write is
   an array access, not a call (see the interface). [Reg.t] is a private
   int, so [(r :> int)] indexes [cpu.regs] at no cost. *)

let[@inline] get (cpu : Cpu.t) (r : Reg.t) =
  let i = (r :> int) in
  if i = 15 then mask32 (cpu.regs.(15) + 4) else cpu.regs.(i)

let[@inline] set (cpu : Cpu.t) (r : Reg.t) v =
  let i = (r :> int) in
  if i = 15 then cpu.regs.(15) <- mask32 v land lnot 1
  else cpu.regs.(i) <- mask32 v

let[@inline] pc (cpu : Cpu.t) = cpu.regs.(15)
let[@inline] set_pc (cpu : Cpu.t) v = cpu.regs.(15) <- mask32 v land lnot 1

let[@inline] condition_holds (cpu : Cpu.t) (c : Instr.cond) =
  match c with
  | EQ -> cpu.z
  | NE -> not cpu.z
  | CS -> cpu.c
  | CC -> not cpu.c
  | MI -> cpu.n
  | PL -> not cpu.n
  | VS -> cpu.v
  | VC -> not cpu.v
  | HI -> cpu.c && not cpu.z
  | LS -> (not cpu.c) || cpu.z
  | GE -> cpu.n = cpu.v
  | LT -> cpu.n <> cpu.v
  | GT -> (not cpu.z) && cpu.n = cpu.v
  | LE -> cpu.z || cpu.n <> cpu.v

(* Flag updates ---------------------------------------------------------- *)

let set_nz (cpu : Cpu.t) result =
  cpu.n <- bit31 result;
  cpu.z <- result = 0

(* result of a + b + carry_in over 32 bits, with NZCV updated in place
   (no intermediate tuple, so arithmetic instructions stay on the minor-
   heap-free path). *)
let add_with_carry (cpu : Cpu.t) a b carry_in =
  let wide = a + b + if carry_in then 1 else 0 in
  let result = mask32 wide in
  cpu.c <- wide > 0xFFFFFFFF;
  (* signed overflow: operands same sign, result different sign *)
  cpu.v <- bit31 (lnot (a lxor b) land (a lxor result));
  cpu.n <- bit31 result;
  cpu.z <- result = 0;
  result

let adds cpu a b = add_with_carry cpu a b false
let subs cpu a b = add_with_carry cpu a (mask32 (lnot b)) true
let adcs (cpu : Cpu.t) a b = add_with_carry cpu a b cpu.c
let sbcs (cpu : Cpu.t) a b = add_with_carry cpu a (mask32 (lnot b)) cpu.c

(* Immediate-amount shifts (format 1): amount 0 encodes special cases. *)
let shift_imm (cpu : Cpu.t) op value amount =
  match (op : Instr.shift_op), amount with
  | Lsl, 0 -> value (* MOVS: carry unchanged *)
  | Lsl, n ->
    cpu.c <- value land (1 lsl (32 - n)) <> 0;
    mask32 (value lsl n)
  | Lsr, 0 ->
    (* encodes LSR #32 *)
    cpu.c <- bit31 value;
    0
  | Lsr, n ->
    cpu.c <- value land (1 lsl (n - 1)) <> 0;
    value lsr n
  | Asr, 0 ->
    (* encodes ASR #32 *)
    cpu.c <- bit31 value;
    if bit31 value then 0xFFFFFFFF else 0
  | Asr, n ->
    cpu.c <- value land (1 lsl (n - 1)) <> 0;
    let signed = if bit31 value then value lor (-1 lxor 0xFFFFFFFF) else value in
    mask32 (signed asr n)

(* Register-amount shifts (format 4): amount taken from low byte. *)
let shift_reg (cpu : Cpu.t) op value amount =
  let amount = amount land 0xFF in
  if amount = 0 then value
  else
    match (op : Instr.alu_op) with
    | LSLr ->
      if amount < 32 then begin
        cpu.c <- value land (1 lsl (32 - amount)) <> 0;
        mask32 (value lsl amount)
      end
      else if amount = 32 then begin
        cpu.c <- value land 1 <> 0;
        0
      end
      else begin
        cpu.c <- false;
        0
      end
    | LSRr ->
      if amount < 32 then begin
        cpu.c <- value land (1 lsl (amount - 1)) <> 0;
        value lsr amount
      end
      else if amount = 32 then begin
        cpu.c <- bit31 value;
        0
      end
      else begin
        cpu.c <- false;
        0
      end
    | ASRr ->
      if amount < 32 then begin
        cpu.c <- value land (1 lsl (amount - 1)) <> 0;
        let signed =
          if bit31 value then value lor (-1 lxor 0xFFFFFFFF) else value
        in
        mask32 (signed asr amount)
      end
      else begin
        cpu.c <- bit31 value;
        if bit31 value then 0xFFFFFFFF else 0
      end
    | ROR ->
      let n = amount land 31 in
      let result =
        if n = 0 then value else mask32 ((value lsr n) lor (value lsl (32 - n)))
      in
      cpu.c <- bit31 result;
      result
    | AND | EOR | ADC | SBC | TST | NEG | CMPr | CMN | ORR | MUL | BIC | MVN ->
      invalid_arg "Exec.shift_reg: not a shift op"

(* Memory helpers --------------------------------------------------------- *)

let sign_extend_8 v = if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v
let sign_extend_16 v = if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v

let load_w mem addr =
  match Memory.read_u32_exn mem addr with
  | v -> v
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_read a))

let load_h mem addr =
  match Memory.read_u16_exn mem addr with
  | v -> v
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_read a))

let load_b mem addr =
  match Memory.read_u8_exn mem addr with
  | v -> v
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_read a))

let store_w mem addr v =
  match Memory.write_u32_exn mem addr v with
  | () -> ()
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_write a))

let store_h mem addr v =
  match Memory.write_u16_exn mem addr v with
  | () -> ()
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_write a))

let store_b mem addr v =
  match Memory.write_u8_exn mem addr v with
  | () -> ()
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    raise (Stop_exn (Bad_write a))

(* Registers r0..r7 present in an 8-bit register list, lowest first,
   precomputed for all 256 lists so PUSH/POP/STMIA/LDMIA never build a
   list at execution time. *)
let rlist_table =
  Array.init 256 (fun rlist ->
      List.filter (fun i -> rlist land (1 lsl i) <> 0) [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let rlist_count =
  Array.init 256 (fun rlist -> List.length rlist_table.(rlist))

(* Transfer the registers of a list to or from consecutive words from
   [addr]; returns the address after the last. Top-level, so a
   PUSH/POP/STMIA/LDMIA allocates no closure. With [wrap] the address
   is masked to 32 bits after each word (LDMIA/STMIA write it back);
   PUSH/POP step it unmasked. *)
let rec store_list mem (cpu : Cpu.t) wrap addr = function
  | [] -> addr
  | r :: rest ->
    store_w mem addr cpu.regs.(r);
    store_list mem cpu wrap (if wrap then mask32 (addr + 4) else addr + 4) rest

let rec load_list mem (cpu : Cpu.t) wrap addr = function
  | [] -> addr
  | r :: rest ->
    cpu.regs.(r) <- load_w mem addr;
    load_list mem cpu wrap (if wrap then mask32 (addr + 4) else addr + 4) rest

(* Execution --------------------------------------------------------------- *)

(* Each arm is responsible for the PC: fall-through arms end with
   [next2], branch arms call [set_pc] themselves (it masks to 32
   bits and clears bit 0, as the old [next] ref protocol did). *)
let[@inline] next2 (cpu : Cpu.t) pc =
  set_pc cpu (pc + 2);
  Running

let execute_exn mem (cpu : Cpu.t) (i : Instr.t) : step_result =
  let pc = pc cpu in
  match i with
  | Shift (op, rd, rs, imm) ->
    let r = shift_imm cpu op (get cpu rs) imm in
    set_nz cpu r;
    set cpu rd r;
    next2 cpu pc
  | Add_sub { sub; imm; rd; rs; operand } ->
    let b = if imm then operand else cpu.regs.(operand) in
    let a = get cpu rs in
    set cpu rd (if sub then subs cpu a b else adds cpu a b);
    next2 cpu pc
  | Imm (MOVi, rd, imm) ->
    set_nz cpu imm;
    set cpu rd imm;
    next2 cpu pc
  | Imm (CMPi, rd, imm) ->
    ignore (subs cpu (get cpu rd) imm);
    next2 cpu pc
  | Imm (ADDi, rd, imm) ->
    set cpu rd (adds cpu (get cpu rd) imm);
    next2 cpu pc
  | Imm (SUBi, rd, imm) ->
    set cpu rd (subs cpu (get cpu rd) imm);
    next2 cpu pc
  | Alu (op, rd, rs) ->
    let a = get cpu rd and b = get cpu rs in
    (match op with
    | AND ->
      let r = a land b in
      set_nz cpu r;
      set cpu rd r
    | EOR ->
      let r = a lxor b in
      set_nz cpu r;
      set cpu rd r
    | ORR ->
      let r = a lor b in
      set_nz cpu r;
      set cpu rd r
    | BIC ->
      let r = a land lnot b land 0xFFFFFFFF in
      set_nz cpu r;
      set cpu rd r
    | MVN ->
      let r = mask32 (lnot b) in
      set_nz cpu r;
      set cpu rd r
    | TST -> set_nz cpu (a land b)
    | NEG -> set cpu rd (subs cpu 0 b)
    | CMPr -> ignore (subs cpu a b)
    | CMN -> ignore (adds cpu a b)
    | ADC -> set cpu rd (adcs cpu a b)
    | SBC -> set cpu rd (sbcs cpu a b)
    | MUL ->
      let r = mask32 (a * b) in
      set_nz cpu r;
      set cpu rd r
    | LSLr | LSRr | ASRr | ROR ->
      let r = shift_reg cpu op a b in
      set_nz cpu r;
      set cpu rd r);
    next2 cpu pc
  | Hi_add (rd, rm) ->
    let r = mask32 (get cpu rd + get cpu rm) in
    if (rd :> int) = 15 then begin
      set_pc cpu r;
      Running
    end
    else begin
      set cpu rd r;
      next2 cpu pc
    end
  | Hi_cmp (rd, rm) ->
    ignore (subs cpu (get cpu rd) (get cpu rm));
    next2 cpu pc
  | Hi_mov (rd, rm) ->
    let r = get cpu rm in
    if (rd :> int) = 15 then begin
      set_pc cpu r;
      Running
    end
    else begin
      set cpu rd r;
      next2 cpu pc
    end
  | Bx rm ->
    let target = get cpu rm in
    if target land 1 = 0 then
      (* Leaving Thumb state is an error on a Cortex-M-class core. *)
      Stopped (Invalid_instruction (target land 0xFFFF))
    else begin
      set_pc cpu target;
      Running
    end
  | Ldr_pc (rd, imm) ->
    let addr = ((pc + 4) land lnot 3) + (imm * 4) in
    set cpu rd (load_w mem addr);
    next2 cpu pc
  | Mem_reg { load = l; byte; rd; rb; ro } ->
    let addr = mask32 (get cpu rb + get cpu ro) in
    (if l then
       set cpu rd (if byte then load_b mem addr else load_w mem addr)
     else if byte then store_b mem addr (get cpu rd)
     else store_w mem addr (get cpu rd));
    next2 cpu pc
  | Mem_sign { op; rd; rb; ro } ->
    let addr = mask32 (get cpu rb + get cpu ro) in
    (match op with
    | STRH -> store_h mem addr (get cpu rd)
    | LDRH -> set cpu rd (load_h mem addr)
    | LDSB -> set cpu rd (sign_extend_8 (load_b mem addr))
    | LDSH -> set cpu rd (sign_extend_16 (load_h mem addr)));
    next2 cpu pc
  | Mem_imm { load = l; byte; rd; rb; imm } ->
    let addr = mask32 (get cpu rb + if byte then imm else imm * 4) in
    (if l then
       set cpu rd (if byte then load_b mem addr else load_w mem addr)
     else if byte then store_b mem addr (get cpu rd)
     else store_w mem addr (get cpu rd));
    next2 cpu pc
  | Mem_half { load = l; rd; rb; imm } ->
    let addr = mask32 (get cpu rb + (imm * 2)) in
    (if l then set cpu rd (load_h mem addr)
     else store_h mem addr (get cpu rd));
    next2 cpu pc
  | Mem_sp { load = l; rd; imm } ->
    let addr = mask32 (get cpu Reg.sp + (imm * 4)) in
    (if l then set cpu rd (load_w mem addr)
     else store_w mem addr (get cpu rd));
    next2 cpu pc
  | Load_addr { from_sp; rd; imm } ->
    let base = if from_sp then get cpu Reg.sp else (pc + 4) land lnot 3 in
    set cpu rd (mask32 (base + (imm * 4)));
    next2 cpu pc
  | Sp_adjust words ->
    set cpu Reg.sp (mask32 (get cpu Reg.sp + (words * 4)));
    next2 cpu pc
  | Push { rlist; lr } ->
    let rlist = rlist land 0xFF in
    let count = rlist_count.(rlist) + if lr then 1 else 0 in
    let base = mask32 (get cpu Reg.sp - (4 * count)) in
    let addr = store_list mem cpu false base rlist_table.(rlist) in
    if lr then store_w mem addr (get cpu Reg.lr);
    set cpu Reg.sp base;
    next2 cpu pc
  | Pop { rlist; pc = load_pc } ->
    let rlist = rlist land 0xFF in
    let base = get cpu Reg.sp in
    let addr = load_list mem cpu false base rlist_table.(rlist) in
    if load_pc then begin
      let target = load_w mem addr in
      set cpu Reg.sp (mask32 (addr + 4));
      set_pc cpu target;
      Running
    end
    else begin
      set cpu Reg.sp (mask32 addr);
      next2 cpu pc
    end
  | Stmia (rb, rlist) ->
    let final = store_list mem cpu true (get cpu rb) rlist_table.(rlist land 0xFF) in
    set cpu rb final;
    next2 cpu pc
  | Ldmia (rb, rlist) ->
    let final = load_list mem cpu true (get cpu rb) rlist_table.(rlist land 0xFF) in
    set cpu rb final;
    next2 cpu pc
  | B_cond (cond, off) ->
    if condition_holds cpu cond then begin
      set_pc cpu (pc + 4 + (off * 2));
      Running
    end
    else next2 cpu pc
  | Swi imm -> Stopped (Swi_trap imm)
  | B off ->
    set_pc cpu (pc + 4 + (off * 2));
    Running
  | Bl_hi off ->
    set cpu Reg.lr (mask32 (pc + 4 + (off lsl 12)));
    next2 cpu pc
  | Bl_lo off ->
    let target = mask32 (get cpu Reg.lr + (off lsl 1)) in
    set cpu Reg.lr ((pc + 2) lor 1);
    set_pc cpu target;
    Running
  | Bkpt imm -> Stopped (Breakpoint imm)
  | Undefined w -> Stopped (Invalid_instruction w)

let execute mem cpu i =
  match execute_exn mem cpu i with
  | r -> r
  | exception Stop_exn s -> Stopped s

(* Figure 2(c)'s ISA change: with [zero_is_invalid] the all-zero
   halfword has no decoding, instead of being [movs r0, r0]. Executing
   [Undefined 0] stops with [Invalid_instruction 0] and changes nothing. *)
let decode ~zero_is_invalid w =
  if w = 0 && zero_is_invalid then Instr.Undefined 0 else Decode.table.(w)

let step ?(zero_is_invalid = false) mem cpu =
  match Memory.fetch_u16_exn mem (pc cpu) with
  | w -> execute mem cpu (decode ~zero_is_invalid w)
  | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) ->
    Stopped (Bad_fetch a)

type watch = { ck : Cpu.t; mutable left : int }

(* Never written: [run] watches the address -1, which no pc equals. *)
let unwatched = { ck = Cpu.create (); left = -1 }

let rec same_regs (a : int array) (b : int array) i =
  i = 16 || (a.(i) = b.(i) && same_regs a b (i + 1))

let[@inline] landed (cpu : Cpu.t) (ck : Cpu.t) =
  cpu.n = ck.n && cpu.z = ck.z && cpu.c = ck.c && cpu.v = ck.v
  && same_regs cpu.regs ck.regs 0

(* [step] unrolled into a top-level loop: one call per instruction, no
   closure, and a stop is returned unboxed, so a run allocates nothing
   of its own. The watch is one compare per step: a step that lands on
   [at] with the checkpoint's registers and flags ends the run with
   [Step_limit] and the unspent budget in [watch.left]. *)
let rec run_from zero_is_invalid mem cpu remaining at watch =
  if remaining = 0 then Step_limit
  else
    match Memory.fetch_u16_exn mem (pc cpu) with
    | w -> (
      match execute_exn mem cpu (decode ~zero_is_invalid w) with
      | Running ->
        if pc cpu = at && landed cpu watch.ck then begin
          watch.left <- remaining - 1;
          Step_limit
        end
        else run_from zero_is_invalid mem cpu (remaining - 1) at watch
      | Stopped s -> s)
    | exception Memory.Fault (Memory.Unmapped a | Memory.Unaligned a) -> Bad_fetch a

let run_watch ~zero_is_invalid ~max_steps watch mem cpu =
  let at = pc watch.ck in
  watch.left <- -1;
  match run_from zero_is_invalid mem cpu max_steps at watch with
  | s -> s
  | exception Stop_exn s -> s

let run ?(zero_is_invalid = false) ?(max_steps = 10_000) mem cpu =
  match run_from zero_is_invalid mem cpu max_steps (-1) unwatched with
  | s -> s
  | exception Stop_exn s -> s
