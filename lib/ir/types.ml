type var = Global of string | Local of string

type value = Const of int | Temp of int

type binop = Add | Sub | Mul | Sdiv | Srem | And | Or | Xor | Shl | Lshr | Ashr

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type instr =
  | Load of { dst : int; src : var; volatile : bool }
  | Store of { dst : var; src : value; volatile : bool }
  | Binop of { dst : int; op : binop; lhs : value; rhs : value }
  | Icmp of { dst : int; op : icmp; lhs : value; rhs : value }
  | Call of { dst : int option; callee : string; args : value list }

type terminator =
  | Br of string
  | Cond_br of { cond : value; if_true : string; if_false : string }
  | Switch of { value : value; cases : (int * string) list; default : string }
  | Ret of value option
  | Unreachable

type block = {
  label : string;
  mutable instrs : instr list;
  mutable term : terminator;
}

type func = {
  fname : string;
  params : string list;
  returns_value : bool;
  mutable locals : string list;
  mutable blocks : block list;
}

type global = {
  gname : string;
  init : int;
  volatile : bool;
  mutable sensitive : bool;
}

type modul = {
  mutable globals : global list;
  mutable funcs : func list;
  mutable externs : string list;
}

let mask32 v = v land 0xFFFFFFFF
let to_signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let eval_binop op a b =
  let a = mask32 a and b = mask32 b in
  match op with
  | Add -> mask32 (a + b)
  | Sub -> mask32 (a - b)
  | Mul -> mask32 (a * b)
  | Sdiv -> if b = 0 then 0 else mask32 (to_signed a / to_signed b)
  | Srem -> if b = 0 then 0 else mask32 (to_signed a mod to_signed b)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> mask32 (a lsl (b land 31))
  | Lshr -> a lsr (b land 31)
  | Ashr ->
    let s = to_signed a asr (b land 31) in
    mask32 s

let eval_icmp op a b =
  let a = mask32 a and b = mask32 b in
  let sa = to_signed a and sb = to_signed b in
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> sa < sb
    | Sle -> sa <= sb
    | Sgt -> sa > sb
    | Sge -> sa >= sb
    | Ult -> a < b
    | Ule -> a <= b
    | Ugt -> a > b
    | Uge -> a >= b
  in
  if r then 1 else 0

let negate_icmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Slt -> Sge
  | Sle -> Sgt
  | Sgt -> Sle
  | Sge -> Slt
  | Ult -> Uge
  | Ule -> Ugt
  | Ugt -> Ule
  | Uge -> Ult

let find_func m name = List.find_opt (fun f -> f.fname = name) m.funcs
let find_block f label = List.find_opt (fun b -> b.label = label) f.blocks
let find_global m name = List.find_opt (fun g -> g.gname = name) m.globals

let successors = function
  | Br l -> [ l ]
  | Cond_br { if_true; if_false; _ } -> [ if_true; if_false ]
  | Switch { cases; default; _ } -> default :: List.map snd cases
  | Ret _ | Unreachable -> []

let predecessors (f : func) =
  let preds = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun succ ->
          Hashtbl.replace preds succ
            (b.label :: Option.value ~default:[] (Hashtbl.find_opt preds succ)))
        (successors b.term))
    f.blocks;
  fun label -> Option.value ~default:[] (Hashtbl.find_opt preds label)

type sccs = {
  nodes : block array;
  index : (string, int) Hashtbl.t;
  succs : int list array;
  comp : int array;
  in_cycle : bool array;
}

(* Tarjan's strongly-connected components over the block graph. *)
let sccs (f : func) =
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i b -> Hashtbl.replace index b.label i) blocks;
  let succs =
    Array.map
      (fun b -> List.filter_map (Hashtbl.find_opt index) (successors b.term))
      blocks
  in
  let comp = Array.make n (-1) in
  let num = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strong v =
    num.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if num.(w) < 0 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) num.(w))
      succs.(v);
    if low.(v) = num.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !ncomp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr ncomp
    end
  in
  for v = 0 to n - 1 do
    if num.(v) < 0 then strong v
  done;
  let size = Array.make !ncomp 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let in_cycle =
    Array.mapi (fun v c -> size.(c) > 1 || List.mem v succs.(v)) comp
  in
  { nodes = blocks; index; succs; comp; in_cycle }

let iter_instrs f visit =
  List.iter (fun b -> List.iter (visit b) b.instrs) f.blocks

let instr_temps = function
  | Load { dst; _ } -> [ dst ]
  | Store { src = Temp t; _ } -> [ t ]
  | Store _ -> []
  | Binop { dst; lhs; rhs; _ } | Icmp { dst; lhs; rhs; _ } ->
    dst
    :: List.filter_map (function Temp t -> Some t | Const _ -> None) [ lhs; rhs ]
  | Call { dst; args; _ } ->
    Option.to_list dst
    @ List.filter_map (function Temp t -> Some t | Const _ -> None) args

let max_temp f =
  List.fold_left
    (fun acc b ->
      let acc =
        List.fold_left
          (fun acc i -> List.fold_left max acc (instr_temps i))
          acc b.instrs
      in
      match b.term with
      | Cond_br { cond = Temp t; _ } -> max acc t
      | Switch { value = Temp t; _ } -> max acc t
      | Ret (Some (Temp t)) -> max acc t
      | Br _ | Cond_br _ | Switch _ | Ret _ | Unreachable -> acc)
    (-1) f.blocks

(* --- printing ------------------------------------------------------------ *)

let pp_var ppf = function
  | Global name -> Fmt.pf ppf "@%s" name
  | Local name -> Fmt.pf ppf "%%%s" name

let pp_value ppf = function
  | Const v -> Fmt.pf ppf "%d" (to_signed v)
  | Temp t -> Fmt.pf ppf "t%d" t

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv" | Srem -> "srem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Lshr -> "lshr"
  | Ashr -> "ashr"

let icmp_name = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let pp_instr ppf = function
  | Load { dst; src; volatile } ->
    Fmt.pf ppf "t%d = load%s %a" dst (if volatile then " volatile" else "") pp_var src
  | Store { dst; src; volatile } ->
    Fmt.pf ppf "store%s %a, %a" (if volatile then " volatile" else "") pp_var dst
      pp_value src
  | Binop { dst; op; lhs; rhs } ->
    Fmt.pf ppf "t%d = %s %a, %a" dst (binop_name op) pp_value lhs pp_value rhs
  | Icmp { dst; op; lhs; rhs } ->
    Fmt.pf ppf "t%d = icmp %s %a, %a" dst (icmp_name op) pp_value lhs pp_value rhs
  | Call { dst; callee; args } -> (
    let pp_args = Fmt.(list ~sep:(any ", ") pp_value) in
    match dst with
    | Some d -> Fmt.pf ppf "t%d = call %s(%a)" d callee pp_args args
    | None -> Fmt.pf ppf "call %s(%a)" callee pp_args args)

let pp_terminator ppf = function
  | Br l -> Fmt.pf ppf "br %s" l
  | Cond_br { cond; if_true; if_false } ->
    Fmt.pf ppf "br %a, %s, %s" pp_value cond if_true if_false
  | Switch { value; cases; default } ->
    Fmt.pf ppf "switch %a, default %s [%a]" pp_value value default
      Fmt.(list ~sep:(any "; ") (pair ~sep:(any " -> ") int string))
      cases
  | Ret None -> Fmt.string ppf "ret void"
  | Ret (Some v) -> Fmt.pf ppf "ret %a" pp_value v
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:" b.label;
  List.iter (fun i -> Fmt.pf ppf "@ %a" pp_instr i) b.instrs;
  Fmt.pf ppf "@ %a@]" pp_terminator b.term

let pp_func ppf f =
  Fmt.pf ppf "@[<v>func %s(%a)%s {@ %a@ }@]" f.fname
    Fmt.(list ~sep:(any ", ") string)
    f.params
    (if f.returns_value then " : i32" else "")
    Fmt.(list ~sep:cut pp_block)
    f.blocks

let pp_modul ppf m =
  List.iter
    (fun g ->
      Fmt.pf ppf "global @%s = %d%s%s@."
        g.gname (to_signed g.init)
        (if g.volatile then " volatile" else "")
        (if g.sensitive then " sensitive" else ""))
    m.globals;
  List.iter (fun f -> Fmt.pf ppf "%a@.@." pp_func f) m.funcs
