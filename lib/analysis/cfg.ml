(* Recursive-traversal CFG recovery over a linked Thumb image.

   Linear-sweep disassembly would misread literal pools as code (every
   function's constants live in .text right after its epilogue), so we
   walk only what is reachable: start from the function symbols and the
   image entry, follow branch/fall-through/call edges, and mark the
   words referenced by reachable [ldr rd, [pc, #imm]] as data.  What is
   left over — never reached, not a literal, not zero padding — is
   flagged as an anomaly rather than silently decoded. *)

type term_kind =
  | Fallthrough  (* split by a leader; control continues linearly *)
  | Jump
  | Cond
  | Return  (* bx lr / pop {..., pc} *)
  | Computed  (* bx rm, mov/add pc, lone bl suffix: target not static *)
  | Call_noreturn  (* dangling bl prefix at the end of a block *)
  | Halt  (* bkpt *)
  | Trap  (* swi *)
  | Invalid  (* reachable undefined encoding *)

type insn = { addr : int; word : int; instr : Thumb.Instr.t }

type block = {
  start : int;
  insns : insn list;
  succs : int list;
  calls : int list;
  term : term_kind;
}

type anomaly =
  | Unreachable_code of { addr : int; halfwords : int }
  | Fallthrough_off of { addr : int }
  | Computed_target of { addr : int }
  | Target_outside of { addr : int; target : int }
  | Dangling_bl of { addr : int }
  | Undecodable of { addr : int; word : int }

type fn = { name : string; entry : int; finish : int; block_addrs : int list }

type t = {
  image : Lower.Layout.image;
  blocks : block list;
  funcs : fn list;
  anomalies : anomaly list;
  code_halfwords : int;
  data_halfwords : int;
}

let anomaly_addr = function
  | Unreachable_code { addr; _ }
  | Fallthrough_off { addr }
  | Computed_target { addr }
  | Target_outside { addr; _ }
  | Dangling_bl { addr }
  | Undecodable { addr; _ } -> addr

let pp_anomaly ppf = function
  | Unreachable_code { addr; halfwords } ->
    Fmt.pf ppf "0x%08x: %d halfword(s) of unreachable non-pool code" addr
      halfwords
  | Fallthrough_off { addr } ->
    Fmt.pf ppf "0x%08x: execution can fall through off the image" addr
  | Computed_target { addr } ->
    Fmt.pf ppf "0x%08x: computed branch target (not statically resolved)" addr
  | Target_outside { addr; target } ->
    Fmt.pf ppf "0x%08x: branch target 0x%08x outside .text" addr target
  | Dangling_bl { addr } ->
    Fmt.pf ppf "0x%08x: unpaired BL half" addr
  | Undecodable { addr; word } ->
    Fmt.pf ppf "0x%08x: reachable undefined encoding 0x%04x" addr word

let of_image (image : Lower.Layout.image) =
  let words = image.words in
  let n = Array.length words in
  let base = image.text.base in
  let addr_of i = base + (2 * i) in
  let in_text i = i >= 0 && i < n in
  let decode i = Thumb.Decode.table.(words.(i) land 0xffff) in
  let covered = Array.make (max n 1) false in
  let is_data = Array.make (max n 1) false in
  let leaders = Hashtbl.create 64 in
  let calls : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let anomalies = ref [] in
  let anom a = anomalies := a :: !anomalies in
  let worklist = Queue.create () in
  let leader i = if in_text i then Hashtbl.replace leaders i () in
  let enqueue i =
    leader i;
    if in_text i then Queue.add i worklist
  in
  let branch_to src target =
    if in_text target then enqueue target
    else anom (Target_outside { addr = addr_of src; target = addr_of target })
  in
  (* Walk one straight-line run from [i] until a terminator or
     already-covered code. *)
  let rec walk i =
    if in_text i && not covered.(i) then begin
      covered.(i) <- true;
      let a = addr_of i in
      let fallthrough () =
        if in_text (i + 1) then walk (i + 1)
        else anom (Fallthrough_off { addr = a })
      in
      match decode i with
      | Thumb.Instr.B off -> branch_to i (i + 2 + off)
      | Thumb.Instr.B_cond (_, off) ->
        branch_to i (i + 2 + off);
        leader (i + 1);
        fallthrough ()
      | Thumb.Instr.Bl_hi hi
        when in_text (i + 1)
             && (match decode (i + 1) with
                | Thumb.Instr.Bl_lo _ -> true
                | _ -> false) ->
        let lo =
          match decode (i + 1) with Thumb.Instr.Bl_lo lo -> lo | _ -> 0
        in
        covered.(i + 1) <- true;
        let target = i + 2 + (hi lsl 11) + lo in
        if in_text target then begin
          Hashtbl.replace calls i target;
          enqueue target
        end
        else
          anom (Target_outside { addr = a; target = addr_of target });
        if in_text (i + 2) then walk (i + 2)
        else anom (Fallthrough_off { addr = a })
      | Thumb.Instr.Bl_hi _ ->
        anom (Dangling_bl { addr = a });
        fallthrough ()
      | Thumb.Instr.Bl_lo _ ->
        (* a lone suffix branches to an LR-derived address *)
        anom (Dangling_bl { addr = a })
      | Thumb.Instr.Bx rm ->
        if not (Thumb.Reg.equal rm Thumb.Reg.lr) then
          anom (Computed_target { addr = a })
      | Thumb.Instr.Hi_mov (rd, _) | Thumb.Instr.Hi_add (rd, _)
        when Thumb.Reg.equal rd Thumb.Reg.pc ->
        anom (Computed_target { addr = a })
      | Thumb.Instr.Pop { pc = true; _ } -> ()
      | Thumb.Instr.Bkpt _ | Thumb.Instr.Swi _ -> ()
      | Thumb.Instr.Undefined w ->
        anom (Undecodable { addr = a; word = w })
      | Thumb.Instr.Ldr_pc (_, imm) ->
        let lit = (a + 4) land lnot 3 in
        let li = ((lit - base) / 2) + (imm * 2) in
        if in_text li then is_data.(li) <- true;
        if in_text (li + 1) then is_data.(li + 1) <- true;
        fallthrough ()
      | _ -> fallthrough ()
    end
  in
  List.iter (fun (_, addr) -> enqueue ((addr - base) / 2)) image.symbols;
  enqueue ((image.entry - base) / 2);
  while not (Queue.is_empty worklist) do
    walk (Queue.pop worklist)
  done;
  (* Literal words reachable as both code and data stay code. *)
  for i = 0 to n - 1 do
    if covered.(i) then is_data.(i) <- false
  done;
  (* Unreachable non-pool, non-padding runs. *)
  let run_start = ref (-1) in
  for i = 0 to n do
    let gap = i < n && (not covered.(i)) && (not is_data.(i)) && words.(i) <> 0 in
    if gap && !run_start < 0 then run_start := i;
    if (not gap) && !run_start >= 0 then begin
      anom
        (Unreachable_code
           { addr = addr_of !run_start; halfwords = i - !run_start });
      run_start := -1
    end
  done;
  (* Block partition: a new block starts at every leader and after every
     terminator; coverage gaps end blocks too. *)
  let is_term i =
    match decode i with
    | Thumb.Instr.B _ | Thumb.Instr.Bx _ | Thumb.Instr.Bkpt _
    | Thumb.Instr.Swi _ | Thumb.Instr.Undefined _ | Thumb.Instr.Bl_lo _
    | Thumb.Instr.Pop { pc = true; _ } -> true
    | Thumb.Instr.B_cond _ -> true
    | Thumb.Instr.Hi_mov (rd, _) | Thumb.Instr.Hi_add (rd, _) ->
      Thumb.Reg.equal rd Thumb.Reg.pc
    | _ -> false
  in
  let blocks = ref [] in
  let flush start last =
    (* [start..last] inclusive, all covered *)
    let insns = ref [] in
    let block_calls = ref [] in
    let i = ref start in
    while !i <= last do
      let instr = decode !i in
      insns := { addr = addr_of !i; word = words.(!i); instr } :: !insns;
      (match Hashtbl.find_opt calls !i with
      | Some t ->
        block_calls := addr_of t :: !block_calls;
        incr i (* skip the BL suffix halfword *)
      | None -> ());
      incr i
    done;
    let insns = List.rev !insns in
    let fallthrough_term () =
      if in_text (last + 1) && covered.(last + 1) then
        (Fallthrough, [ addr_of (last + 1) ])
      else (Fallthrough, [])
    in
    let term, succs =
      if last > 0 && Hashtbl.mem calls (last - 1) then
        (* the block ends with a complete BL pair: the call returns *)
        fallthrough_term ()
      else
      match decode last with
      | Thumb.Instr.B off -> (Jump, [ addr_of (last + 2 + off) ])
      | Thumb.Instr.B_cond (_, off) ->
        (Cond, [ addr_of (last + 2 + off); addr_of (last + 1) ])
      | Thumb.Instr.Bx rm ->
        if Thumb.Reg.equal rm Thumb.Reg.lr then (Return, [])
        else (Computed, [])
      | Thumb.Instr.Pop { pc = true; _ } -> (Return, [])
      | Thumb.Instr.Hi_mov (rd, _) | Thumb.Instr.Hi_add (rd, _)
        when Thumb.Reg.equal rd Thumb.Reg.pc -> (Computed, [])
      | Thumb.Instr.Bkpt _ -> (Halt, [])
      | Thumb.Instr.Swi _ -> (Trap, [])
      | Thumb.Instr.Undefined _ -> (Invalid, [])
      | Thumb.Instr.Bl_lo _ -> (Computed, [])
      | Thumb.Instr.Bl_hi _ -> (Call_noreturn, [])
      | _ -> fallthrough_term ()
    in
    let succs = List.filter (fun a -> in_text ((a - base) / 2)) succs in
    blocks :=
      { start = addr_of start;
        insns;
        succs;
        calls = List.rev !block_calls;
        term }
      :: !blocks
  in
  let start = ref (-1) in
  for i = 0 to n do
    let here = i < n && covered.(i) in
    if here && !start >= 0 && Hashtbl.mem leaders i then begin
      flush !start (i - 1);
      start := i
    end
    else if here && !start < 0 then start := i;
    let consumed_suffix = i > 0 && Hashtbl.mem calls (i - 1) in
    if !start >= 0 && i < n && covered.(i) && is_term i && not consumed_suffix
    then begin
      flush !start i;
      start := -1
    end
    else if (not here) && !start >= 0 then begin
      flush !start (i - 1);
      start := -1
    end
  done;
  let blocks =
    List.sort (fun a b -> compare a.start b.start) (List.rev !blocks)
  in
  (* Function spans from the symbol table. *)
  let syms =
    List.sort (fun (_, a) (_, b) -> compare a b) image.symbols
  in
  let funcs =
    let rec spans = function
      | [] -> []
      | (name, entry) :: rest ->
        let finish =
          match rest with
          | (_, next) :: _ -> next
          | [] -> base + (2 * n)
        in
        let block_addrs =
          List.filter_map
            (fun b ->
              if b.start >= entry && b.start < finish then Some b.start
              else None)
            blocks
        in
        { name; entry; finish; block_addrs } :: spans rest
    in
    spans syms
  in
  let code_halfwords =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 covered
  in
  let data_halfwords =
    Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 is_data
  in
  { image;
    blocks;
    funcs;
    anomalies =
      List.sort (fun a b -> compare (anomaly_addr a) (anomaly_addr b))
        !anomalies;
    code_halfwords;
    data_halfwords }

let owner t =
  let funcs = Array.of_list t.funcs in
  let entries = Array.map (fun (f : fn) -> f.entry) funcs in
  fun addr ->
    match Lower.Layout.owner_index entries addr with
    | -1 -> None
    | i -> Some funcs.(i).name

let find_fn t name = List.find_opt (fun (f : fn) -> f.name = name) t.funcs
let block_at t addr = List.find_opt (fun b -> b.start = addr) t.blocks

let reachable_insns t = List.concat_map (fun b -> b.insns) t.blocks

let conditionals t =
  List.filter_map
    (fun b ->
      match List.rev b.insns with
      | ({ instr = Thumb.Instr.B_cond _; _ } as i) :: _ -> Some i
      | _ -> None)
    t.blocks

let pp ppf t =
  Fmt.pf ppf "@[<v>%d block(s), %d function(s), %d code halfword(s), %d literal halfword(s)"
    (List.length t.blocks) (List.length t.funcs) t.code_halfwords
    t.data_halfwords;
  List.iter (fun a -> Fmt.pf ppf "@,anomaly: %a" pp_anomaly a) t.anomalies;
  Fmt.pf ppf "@]"
