type t = {
  fn : Types.func;
  mutable cursor : Types.block;
  mutable next_temp : int;
  mutable next_label : int;
}

let create ~fname ~params ~returns_value =
  let entry = { Types.label = "entry"; instrs = []; term = Types.Unreachable } in
  let fn =
    { Types.fname; params; returns_value; locals = params; blocks = [ entry ] }
  in
  { fn; cursor = entry; next_temp = 0; next_label = 0 }

let func t = t.fn

let add_local t name =
  if not (List.mem name t.fn.locals) then t.fn.locals <- t.fn.locals @ [ name ]

let fresh_temp t =
  let n = t.next_temp in
  t.next_temp <- n + 1;
  n

let fresh_label t hint =
  let n = t.next_label in
  t.next_label <- n + 1;
  Printf.sprintf "%s.%d" hint n

let new_block t label =
  let b = { Types.label; instrs = []; term = Types.Unreachable } in
  t.fn.blocks <- t.fn.blocks @ [ b ];
  t.cursor <- b;
  b

let current_block t = t.cursor

let emit t i = t.cursor.Types.instrs <- t.cursor.Types.instrs @ [ i ]

let load ?(volatile = false) t src =
  let dst = fresh_temp t in
  emit t (Types.Load { dst; src; volatile });
  Types.Temp dst

let store ?(volatile = false) t dst src = emit t (Types.Store { dst; src; volatile })

let binop t op lhs rhs =
  let dst = fresh_temp t in
  emit t (Types.Binop { dst; op; lhs; rhs });
  Types.Temp dst

let icmp t op lhs rhs =
  let dst = fresh_temp t in
  emit t (Types.Icmp { dst; op; lhs; rhs });
  Types.Temp dst

let call t ?(dst = false) callee args =
  if dst then begin
    let d = fresh_temp t in
    emit t (Types.Call { dst = Some d; callee; args });
    Some (Types.Temp d)
  end
  else begin
    emit t (Types.Call { dst = None; callee; args });
    None
  end

let br t label = t.cursor.Types.term <- Types.Br label

let cond_br t cond ~if_true ~if_false =
  t.cursor.Types.term <- Types.Cond_br { cond; if_true; if_false }

let ret t v = t.cursor.Types.term <- Types.Ret v

let switch t value ~cases ~default =
  t.cursor.Types.term <- Types.Switch { value; cases; default }
