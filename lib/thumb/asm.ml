type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf { line; message } = Fmt.pf ppf "line %d: %s" line message

let fail line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* --- lexical helpers ------------------------------------------------- *)

let strip_comment s =
  let cut c s = match String.index_opt s c with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  cut ';' (cut '@' s)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '.'

let parse_int line s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line "bad integer %S" s

(* "#42", "#0x2A", "#-8" *)
let parse_imm line s =
  let s = String.trim s in
  if String.length s > 0 && s.[0] = '#' then
    parse_int line (String.sub s 1 (String.length s - 1))
  else fail line "expected immediate, got %S" s

let parse_reg line s =
  let s = String.lowercase_ascii (String.trim s) in
  match s with
  | "sp" -> Reg.sp
  | "lr" -> Reg.lr
  | "pc" -> Reg.pc
  | "ip" -> Reg.r12
  | _ ->
    if String.length s >= 2 && s.[0] = 'r' then
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n when n >= 0 && n <= 15 -> Reg.of_int n
      | Some _ | None -> fail line "bad register %S" s
    else fail line "bad register %S" s

let low_reg line s =
  let r = parse_reg line s in
  if Reg.is_low r then r else fail line "register %a not a low register" Reg.pp r

(* Split operands at top level commas, respecting [...] and {...}. *)
let split_operands s =
  let out = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '[' | '{' ->
        incr depth;
        Buffer.add_char buf c
      | ']' | '}' ->
        decr depth;
        Buffer.add_char buf c
      | ',' when !depth = 0 ->
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      | _ -> Buffer.add_char buf c)
    s;
  if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out |> List.filter (fun s -> s <> "")

(* "{r0, r1, lr}" -> (rlist bits for r0-r7, lr/pc flag) *)
let parse_reglist line s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then
    fail line "expected register list, got %S" s;
  let inner = String.sub s 1 (n - 2) in
  let parts = String.split_on_char ',' inner |> List.map String.trim in
  List.fold_left
    (fun (rlist, special) part ->
      if part = "" then (rlist, special)
      else
        match String.lowercase_ascii part with
        | "lr" | "pc" -> (rlist, true)
        | _ ->
          let r = parse_reg line part in
          if Reg.is_low r then (rlist lor (1 lsl Reg.to_int r), special)
          else fail line "high register %a in register list" Reg.pp r)
    (0, false) parts

(* "[rb, #imm]" | "[rb, ro]" | "[rb]" *)
type mem_operand =
  | Base_imm of Reg.t * int
  | Base_reg of Reg.t * Reg.t

let parse_mem line s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then
    fail line "expected memory operand, got %S" s;
  let inner = String.sub s 1 (n - 2) in
  match String.split_on_char ',' inner |> List.map String.trim with
  | [ rb ] -> Base_imm (parse_reg line rb, 0)
  | [ rb; second ] ->
    let rb = parse_reg line rb in
    if String.length second > 0 && second.[0] = '#' then
      Base_imm (rb, parse_imm line second)
    else Base_reg (rb, parse_reg line second)
  | _ -> fail line "bad memory operand %S" s

(* --- source lines ----------------------------------------------------- *)

type raw_line = { num : int; label : string option; body : string option }

let split_lines src =
  String.split_on_char '\n' src
  |> List.mapi (fun i text -> (i + 1, String.trim (strip_comment text)))
  |> List.filter_map (fun (num, text) ->
         if text = "" then None
         else
           match String.index_opt text ':' with
           | Some i
             when i > 0
                  && String.for_all is_ident_char (String.sub text 0 i) ->
             let rest = String.trim (String.sub text (i + 1) (String.length text - i - 1)) in
             Some { num; label = Some (String.sub text 0 i);
                    body = (if rest = "" then None else Some rest) }
           | Some _ | None -> Some { num; label = None; body = Some text })

(* halfword length of an instruction line *)
let body_length line body =
  match String.split_on_char ' ' body with
  | mnem :: _ when String.lowercase_ascii mnem = "bl" -> 2
  | mnem :: _ when String.lowercase_ascii mnem = ".word" -> 2
  | _ :: _ -> 1
  | [] -> fail line "empty instruction"

(* --- instruction parsing ---------------------------------------------- *)

type target_env = { labels : (string, int) Hashtbl.t; here : int }
(* [here] is the halfword index of the instruction being parsed. *)

(* Branch offset in halfwords from an instruction at halfword index
   [here]: offset field = target - (here + 2). *)
let branch_offset line env arg =
  let arg = String.trim arg in
  if String.length arg > 0 && arg.[0] = '#' then (
    let bytes = parse_imm line arg in
    if bytes land 1 <> 0 then fail line "odd branch offset %d" bytes;
    bytes / 2)
  else
    match Hashtbl.find_opt env.labels arg with
    | Some target -> target - (env.here + 2)
    | None -> fail line "undefined label %S" arg

let alu_of_mnemonic = function
  | "ands" | "and" -> Some Instr.AND
  | "eors" | "eor" -> Some Instr.EOR
  | "adcs" | "adc" -> Some Instr.ADC
  | "sbcs" | "sbc" -> Some Instr.SBC
  | "rors" | "ror" -> Some Instr.ROR
  | "tst" -> Some Instr.TST
  | "negs" | "neg" -> Some Instr.NEG
  | "cmn" -> Some Instr.CMN
  | "orrs" | "orr" -> Some Instr.ORR
  | "muls" | "mul" -> Some Instr.MUL
  | "bics" | "bic" -> Some Instr.BIC
  | "mvns" | "mvn" -> Some Instr.MVN
  | _ -> None

let shift_of_mnemonic = function
  | "lsls" | "lsl" -> Some (Instr.Lsl, Instr.LSLr)
  | "lsrs" | "lsr" -> Some (Instr.Lsr, Instr.LSRr)
  | "asrs" | "asr" -> Some (Instr.Asr, Instr.ASRr)
  | _ -> None

let cond_of_branch_mnemonic m =
  if String.length m = 3 && m.[0] = 'b' then
    let suffix = String.sub m 1 2 in
    List.find_opt (fun c -> Instr.cond_name c = suffix) Instr.all_conds
  else None

let is_imm s = String.length s > 0 && (String.trim s).[0] = '#'

let rec parse_instr env line body : Instr.t list =
  (* Validate ranges eagerly so callers get a located Parse_error rather
     than a late Invalid_argument from the encoder. *)
  let instrs = parse_instr_unchecked env line body in
  List.iter
    (fun i ->
      try ignore (Encode.instr i)
      with Invalid_argument message -> fail line "%s" message)
    instrs;
  instrs

and parse_instr_unchecked env line body : Instr.t list =
  let mnem, rest =
    match String.index_opt body ' ' with
    | Some i ->
      ( String.lowercase_ascii (String.sub body 0 i),
        String.sub body (i + 1) (String.length body - i - 1) )
    | None -> (String.lowercase_ascii body, "")
  in
  let ops = split_operands rest in
  let one i = [ i ] in
  match (mnem, ops) with
  | "nop", [] -> one (Instr.Hi_mov (Reg.r8, Reg.r8))
  | ".word", [ imm ] ->
    (* 32-bit data in the instruction stream (literal pools); kept as
       raw halfwords so decode reports whatever the bits happen to be *)
    let v = parse_int line imm land 0xFFFFFFFF in
    [ Instr.Undefined (v land 0xFFFF); Instr.Undefined ((v lsr 16) land 0xFFFF) ]
  | ("movs" | "mov"), [ rd; src ] when is_imm src ->
    one (Instr.Imm (Instr.MOVi, low_reg line rd, parse_imm line src))
  | "movs", [ rd; rs ] ->
    one (Instr.Shift (Instr.Lsl, low_reg line rd, low_reg line rs, 0))
  | "mov", [ rd; rm ] -> one (Instr.Hi_mov (parse_reg line rd, parse_reg line rm))
  | "cmp", [ rd; src ] when is_imm src ->
    one (Instr.Imm (Instr.CMPi, low_reg line rd, parse_imm line src))
  | "cmp", [ rd; rs ] ->
    let rd = parse_reg line rd and rs = parse_reg line rs in
    if Reg.is_low rd && Reg.is_low rs then one (Instr.Alu (Instr.CMPr, rd, rs))
    else one (Instr.Hi_cmp (rd, rs))
  | ("adds" | "subs"), [ rd; src ] when is_imm src ->
    let op = if mnem = "adds" then Instr.ADDi else Instr.SUBi in
    one (Instr.Imm (op, low_reg line rd, parse_imm line src))
  | ("adds" | "subs"), [ rd; rs; src ] ->
    let sub = mnem = "subs" in
    let rd = low_reg line rd and rs = low_reg line rs in
    if is_imm src then
      one (Instr.Add_sub { sub; imm = true; rd; rs; operand = parse_imm line src })
    else
      one
        (Instr.Add_sub
           { sub; imm = false; rd; rs; operand = Reg.to_int (low_reg line src) })
  | "add", [ rd; base; src ]
    when is_imm src
         && (String.lowercase_ascii (String.trim base) = "sp"
            || String.lowercase_ascii (String.trim base) = "pc") ->
    let bytes = parse_imm line src in
    if bytes land 3 <> 0 then fail line "unaligned address offset %d" bytes;
    one
      (Instr.Load_addr
         { from_sp = String.lowercase_ascii (String.trim base) = "sp";
           rd = low_reg line rd;
           imm = bytes / 4 })
  | "add", [ sp; src ]
    when String.lowercase_ascii (String.trim sp) = "sp" && is_imm src ->
    let bytes = parse_imm line src in
    if bytes land 3 <> 0 then fail line "unaligned sp adjustment %d" bytes;
    one (Instr.Sp_adjust (bytes / 4))
  | "sub", [ sp; src ]
    when String.lowercase_ascii (String.trim sp) = "sp" && is_imm src ->
    let bytes = parse_imm line src in
    if bytes land 3 <> 0 then fail line "unaligned sp adjustment %d" bytes;
    one (Instr.Sp_adjust (-(bytes / 4)))
  | "add", [ rd; rm ] -> one (Instr.Hi_add (parse_reg line rd, parse_reg line rm))
  | _, [ rd; rs; amount ]
    when shift_of_mnemonic mnem <> None && is_imm amount ->
    let op, _ = Option.get (shift_of_mnemonic mnem) in
    one (Instr.Shift (op, low_reg line rd, low_reg line rs, parse_imm line amount))
  | _, [ rd; rs ] when shift_of_mnemonic mnem <> None ->
    let _, op = Option.get (shift_of_mnemonic mnem) in
    one (Instr.Alu (op, low_reg line rd, low_reg line rs))
  | _, [ rd; rs ] when alu_of_mnemonic mnem <> None ->
    one (Instr.Alu (Option.get (alu_of_mnemonic mnem), low_reg line rd, low_reg line rs))
  | ("ldr" | "str"), [ rd; mem ] -> (
    let load = mnem = "ldr" in
    match parse_mem line mem with
    | Base_imm (rb, bytes) when Reg.equal rb Reg.sp ->
      if bytes land 3 <> 0 then fail line "unaligned sp-relative offset";
      one (Instr.Mem_sp { load; rd = low_reg line rd; imm = bytes / 4 })
    | Base_imm (rb, bytes) when Reg.equal rb Reg.pc ->
      if not load then fail line "str pc-relative is not encodable";
      if bytes land 3 <> 0 then fail line "unaligned pc-relative offset";
      one (Instr.Ldr_pc (low_reg line rd, bytes / 4))
    | Base_imm (rb, bytes) ->
      if bytes land 3 <> 0 then fail line "unaligned word offset %d" bytes;
      one
        (Instr.Mem_imm
           { load; byte = false; rd = low_reg line rd; rb; imm = bytes / 4 })
    | Base_reg (rb, ro) ->
      one (Instr.Mem_reg { load; byte = false; rd = low_reg line rd; rb; ro }))
  | ("ldrb" | "strb"), [ rd; mem ] -> (
    let load = mnem = "ldrb" in
    match parse_mem line mem with
    | Base_imm (rb, imm) ->
      one (Instr.Mem_imm { load; byte = true; rd = low_reg line rd; rb; imm })
    | Base_reg (rb, ro) ->
      one (Instr.Mem_reg { load; byte = true; rd = low_reg line rd; rb; ro }))
  | ("ldrh" | "strh"), [ rd; mem ] -> (
    let load = mnem = "ldrh" in
    match parse_mem line mem with
    | Base_imm (rb, bytes) ->
      if bytes land 1 <> 0 then fail line "unaligned halfword offset %d" bytes;
      one (Instr.Mem_half { load; rd = low_reg line rd; rb; imm = bytes / 2 })
    | Base_reg (rb, ro) ->
      let op = if load then Instr.LDRH else Instr.STRH in
      one (Instr.Mem_sign { op; rd = low_reg line rd; rb; ro }))
  | ("ldsb" | "ldsh"), [ rd; mem ] -> (
    match parse_mem line mem with
    | Base_reg (rb, ro) ->
      let op = if mnem = "ldsb" then Instr.LDSB else Instr.LDSH in
      one (Instr.Mem_sign { op; rd = low_reg line rd; rb; ro })
    | Base_imm _ -> fail line "%s requires a register offset" mnem)
  | "push", [ regs ] ->
    let rlist, lr = parse_reglist line regs in
    one (Instr.Push { rlist; lr })
  | "pop", [ regs ] ->
    let rlist, pc = parse_reglist line regs in
    one (Instr.Pop { rlist; pc })
  | "stmia", [ rb; regs ] | "ldmia", [ rb; regs ] ->
    let rb = String.trim rb in
    let rb =
      if String.length rb > 0 && rb.[String.length rb - 1] = '!' then
        String.sub rb 0 (String.length rb - 1)
      else rb
    in
    let rb = low_reg line rb in
    let rlist, special = parse_reglist line regs in
    if special then fail line "lr/pc not allowed in %s" mnem;
    if mnem = "stmia" then one (Instr.Stmia (rb, rlist))
    else one (Instr.Ldmia (rb, rlist))
  | "b", [ target ] -> one (Instr.B (branch_offset line env target))
  | "bl", [ target ] ->
    (* Two-halfword BL; the offset is computed from the first halfword. *)
    let off = branch_offset line env target * 2 in
    one (Instr.Bl_hi (off asr 12)) @ [ Instr.Bl_lo ((off lsr 1) land 0x7FF) ]
  | "bx", [ rm ] -> one (Instr.Bx (parse_reg line rm))
  | "swi", [ imm ] -> one (Instr.Swi (parse_imm line imm))
  | "bkpt", [ imm ] -> one (Instr.Bkpt (parse_imm line imm))
  | _, [ target ] when cond_of_branch_mnemonic mnem <> None ->
    let cond = Option.get (cond_of_branch_mnemonic mnem) in
    one (Instr.B_cond (cond, branch_offset line env target))
  | _, _ -> fail line "cannot parse %S" body

(* --- driver ------------------------------------------------------------ *)

let assemble_with_labels src =
  let lines = split_lines src in
  let labels = Hashtbl.create 16 in
  (* First pass: label -> halfword index. *)
  let (_ : int) =
    List.fold_left
      (fun here { num; label; body } ->
        (match label with
        | Some name ->
          if Hashtbl.mem labels name then fail num "duplicate label %S" name;
          Hashtbl.add labels name here
        | None -> ());
        match body with
        | Some b -> here + body_length num b
        | None -> here)
      0 lines
  in
  (* Second pass: parse with resolved labels. *)
  let _, rev_instrs =
    List.fold_left
      (fun (here, acc) { num; label = _; body } ->
        match body with
        | None -> (here, acc)
        | Some b ->
          let is = parse_instr { labels; here } num b in
          (here + List.length is, List.rev_append is acc))
      (0, []) lines
  in
  let label_offsets =
    Hashtbl.fold (fun name off acc -> (name, off) :: acc) labels []
    |> List.sort compare
  in
  (List.rev rev_instrs, label_offsets)

let assemble src = fst (assemble_with_labels src)

let assemble_words src = Encode.program (assemble src)
