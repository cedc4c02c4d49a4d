(* Per-instruction dataflow metadata, one entry per arm of
   Thumb.Instr.t, mirroring Machine.Exec's concrete semantics: which
   registers and flags an instruction reads (values its result depends
   on), which it writes, whether it touches memory, and whether it is
   control-relevant. Every instruction the emulator can execute has an
   entry — the exhaustiveness test walks all 65,536 decodings. *)

let reg r = 1 lsl Thumb.Reg.to_int r

let sp_bit = 1 lsl 13
let lr_bit = 1 lsl 14
let pc_bit = 1 lsl 15

(* NZCV bit codes, matching the Machine.State key flag byte. *)
let fn = 8
let fz = 4
let fc = 2
let fv = 1
let fnzcv = fn lor fz lor fc lor fv

(* Flags read by Exec.condition_holds per condition. *)
let cond_flags (c : Thumb.Instr.cond) =
  match c with
  | EQ | NE -> fz
  | CS | CC -> fc
  | MI | PL -> fn
  | VS | VC -> fv
  | HI | LS -> fc lor fz
  | GE | LT -> fn lor fv
  | GT | LE -> fz lor fn lor fv

type mem_kind = No_mem | Load | Store

type ctrl_kind = Straight | Cond of Thumb.Instr.cond | Diverts

type t = {
  reads : int;  (** registers whose values feed the result or address *)
  writes : int;  (** registers written *)
  flag_reads : int;
  flag_writes : int;
  mem : mem_kind;
  ctrl : ctrl_kind;  (** [Diverts]: PC writes, traps, halts, undefined *)
}

let straight ?(flag_reads = 0) ?(flag_writes = 0) ?(mem = No_mem) ~reads ~writes
    () =
  { reads; writes; flag_reads; flag_writes; mem; ctrl = Straight }

let low_rlist_bits rlist = rlist land 0xFF

let of_instr (i : Thumb.Instr.t) =
  match i with
  | Shift (op, rd, rs, imm) ->
    (* NZ always; C except the LSL #0 (MOVS) special case. *)
    let c = match op with Lsl when imm = 0 -> 0 | _ -> fc in
    straight ~reads:(reg rs) ~writes:(reg rd) ~flag_writes:(fn lor fz lor c) ()
  | Add_sub { imm; rd; rs; operand; _ } ->
    let reads = reg rs lor if imm then 0 else 1 lsl operand in
    straight ~reads ~writes:(reg rd) ~flag_writes:fnzcv ()
  | Imm (MOVi, rd, _) ->
    straight ~reads:0 ~writes:(reg rd) ~flag_writes:(fn lor fz) ()
  | Imm (CMPi, rd, _) -> straight ~reads:(reg rd) ~writes:0 ~flag_writes:fnzcv ()
  | Imm ((ADDi | SUBi), rd, _) ->
    straight ~reads:(reg rd) ~writes:(reg rd) ~flag_writes:fnzcv ()
  | Alu (op, rd, rs) -> (
    let rd_b = reg rd and rs_b = reg rs in
    match op with
    | AND | EOR | ORR | BIC | MUL ->
      straight ~reads:(rd_b lor rs_b) ~writes:rd_b ~flag_writes:(fn lor fz) ()
    | MVN -> straight ~reads:rs_b ~writes:rd_b ~flag_writes:(fn lor fz) ()
    | TST -> straight ~reads:(rd_b lor rs_b) ~writes:0 ~flag_writes:(fn lor fz) ()
    | LSLr | LSRr | ASRr | ROR ->
      (* C conditionally updated (amount <> 0): may-write. *)
      straight ~reads:(rd_b lor rs_b) ~writes:rd_b
        ~flag_writes:(fn lor fz lor fc) ()
    | NEG -> straight ~reads:rs_b ~writes:rd_b ~flag_writes:fnzcv ()
    | CMPr | CMN ->
      straight ~reads:(rd_b lor rs_b) ~writes:0 ~flag_writes:fnzcv ()
    | ADC | SBC ->
      straight ~reads:(rd_b lor rs_b) ~writes:rd_b ~flag_reads:fc
        ~flag_writes:fnzcv ())
  | Hi_add (rd, rm) when Thumb.Reg.equal rd Thumb.Reg.pc ->
    { reads = reg rm; writes = pc_bit; flag_reads = 0; flag_writes = 0;
      mem = No_mem; ctrl = Diverts }
  | Hi_add (rd, rm) ->
    straight ~reads:(reg rd lor reg rm) ~writes:(reg rd) ()
  | Hi_cmp (rd, rm) ->
    straight ~reads:(reg rd lor reg rm) ~writes:0 ~flag_writes:fnzcv ()
  | Hi_mov (rd, rm) when Thumb.Reg.equal rd Thumb.Reg.pc ->
    { reads = reg rm; writes = pc_bit; flag_reads = 0; flag_writes = 0;
      mem = No_mem; ctrl = Diverts }
  | Hi_mov (rd, rm) -> straight ~reads:(reg rm) ~writes:(reg rd) ()
  | Bx rm ->
    { reads = reg rm; writes = pc_bit; flag_reads = 0; flag_writes = 0;
      mem = No_mem; ctrl = Diverts }
  | Ldr_pc (rd, _) ->
    (* PC-relative: the address is a constant; flash is immutable in
       transient mode, so the loaded value is the baseline's. *)
    straight ~reads:0 ~writes:(reg rd) ~mem:Load ()
  | Mem_reg { load; rd; rb; ro; _ } ->
    if load then straight ~reads:(reg rb lor reg ro) ~writes:(reg rd) ~mem:Load ()
    else
      straight ~reads:(reg rb lor reg ro lor reg rd) ~writes:0 ~mem:Store ()
  | Mem_sign { op = STRH; rd; rb; ro } ->
    straight ~reads:(reg rb lor reg ro lor reg rd) ~writes:0 ~mem:Store ()
  | Mem_sign { rd; rb; ro; _ } ->
    straight ~reads:(reg rb lor reg ro) ~writes:(reg rd) ~mem:Load ()
  | Mem_imm { load; rd; rb; _ } ->
    if load then straight ~reads:(reg rb) ~writes:(reg rd) ~mem:Load ()
    else straight ~reads:(reg rb lor reg rd) ~writes:0 ~mem:Store ()
  | Mem_half { load; rd; rb; _ } ->
    if load then straight ~reads:(reg rb) ~writes:(reg rd) ~mem:Load ()
    else straight ~reads:(reg rb lor reg rd) ~writes:0 ~mem:Store ()
  | Mem_sp { load; rd; _ } ->
    if load then straight ~reads:sp_bit ~writes:(reg rd) ~mem:Load ()
    else straight ~reads:(sp_bit lor reg rd) ~writes:0 ~mem:Store ()
  | Load_addr { from_sp; rd; _ } ->
    straight ~reads:(if from_sp then sp_bit else 0) ~writes:(reg rd) ()
  | Sp_adjust _ -> straight ~reads:sp_bit ~writes:sp_bit ()
  | Push { rlist; lr } ->
    let regs = low_rlist_bits rlist lor if lr then lr_bit else 0 in
    straight ~reads:(sp_bit lor regs) ~writes:sp_bit ~mem:Store ()
  | Pop { rlist; pc } ->
    let writes = low_rlist_bits rlist lor sp_bit in
    if pc then
      { reads = sp_bit; writes = writes lor pc_bit; flag_reads = 0;
        flag_writes = 0; mem = Load; ctrl = Diverts }
    else straight ~reads:sp_bit ~writes ~mem:Load ()
  | Stmia (rb, rlist) ->
    straight ~reads:(reg rb lor low_rlist_bits rlist) ~writes:(reg rb)
      ~mem:Store ()
  | Ldmia (rb, rlist) ->
    straight ~reads:(reg rb) ~writes:(reg rb lor low_rlist_bits rlist)
      ~mem:Load ()
  | B_cond (c, _) ->
    { reads = 0; writes = 0; flag_reads = cond_flags c; flag_writes = 0;
      mem = No_mem; ctrl = Cond c }
  | B _ ->
    { reads = 0; writes = pc_bit; flag_reads = 0; flag_writes = 0;
      mem = No_mem; ctrl = Diverts }
  | Bl_hi _ ->
    (* Writes LR from the (untainted) PC; falls through. *)
    straight ~reads:0 ~writes:lr_bit ()
  | Bl_lo _ ->
    { reads = lr_bit; writes = lr_bit lor pc_bit; flag_reads = 0;
      flag_writes = 0; mem = No_mem; ctrl = Diverts }
  | Swi _ | Bkpt _ | Undefined _ ->
    { reads = 0; writes = 0; flag_reads = 0; flag_writes = 0; mem = No_mem;
      ctrl = Diverts }

(* A "pure" instruction in the pre-pruner's sense: no memory access, no
   control relevance — its whole effect is a register/flag write. *)
let pure e = e.mem = No_mem && e.ctrl = Straight
