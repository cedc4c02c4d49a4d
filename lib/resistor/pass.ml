type fresh = { mutable next_temp : int; mutable next_label : int }

(* Labels already added by earlier passes look like "gr.<hint>.<n>";
   resume the counter above any existing suffix so passes compose. *)
let next_free_label_index (f : Ir.func) =
  List.fold_left
    (fun acc (b : Ir.block) ->
      match String.rindex_opt b.label '.' with
      | Some i when String.length b.label > 3 && String.sub b.label 0 3 = "gr." -> (
        match
          int_of_string_opt
            (String.sub b.label (i + 1) (String.length b.label - i - 1))
        with
        | Some n -> max acc (n + 1)
        | None -> acc)
      | Some _ | None -> acc)
    0 f.blocks

let fresh_for (f : Ir.func) =
  { next_temp = Ir.max_temp f + 1; next_label = next_free_label_index f }

let temp fresh =
  let t = fresh.next_temp in
  fresh.next_temp <- t + 1;
  t

let label fresh hint =
  let n = fresh.next_label in
  fresh.next_label <- n + 1;
  Printf.sprintf "gr.%s.%d" hint n

(* Runtime helpers the passes add ("__gr_" prefix). *)
let is_runtime_helper fname =
  String.length fname >= 4 && String.sub fname 0 4 = "__gr"

let ensure_global (m : Ir.modul) gname ~init ~volatile =
  if Ir.find_global m gname = None then
    m.globals <- m.globals @ [ { Ir.gname; init; volatile; sensitive = false } ]

let ensure_func (m : Ir.modul) fname build =
  if Ir.find_func m fname = None then m.funcs <- m.funcs @ [ build () ]

let ensure_extern (m : Ir.modul) name =
  if not (List.mem name m.externs) then m.externs <- name :: m.externs

let attach added ~after blocks =
  Hashtbl.replace added after
    (Option.value ~default:[] (Hashtbl.find_opt added after) @ blocks)

let splice added blocks =
  List.concat_map
    (fun (b : Ir.block) ->
      b :: Option.value ~default:[] (Hashtbl.find_opt added b.Ir.label))
    blocks

let def_map (f : Ir.func) =
  let defs = Hashtbl.create 64 in
  Ir.iter_instrs f (fun _ i ->
      match i with
      | Ir.Load { dst; _ } | Ir.Binop { dst; _ } | Ir.Icmp { dst; _ }
      | Ir.Call { dst = Some dst; _ } -> Hashtbl.replace defs dst i
      | Ir.Store _ | Ir.Call { dst = None; _ } -> ());
  defs

type clone_result = {
  instrs : Ir.instr list;
  value : Ir.value;
  replicated : bool;
  reused : int list;
      (** temps reused verbatim because their computation cannot be
          replicated (volatile loads, call results, parameters); a
          consumer that must not trust a single spilled slot has to
          cross-validate these against a shadow *)
}

let max_clone_depth = 12

let clone_chain fresh defs root =
  let instrs = ref [] in
  let fully = ref true in
  let reused = ref [] in
  let reuse t =
    fully := false;
    if not (List.mem t !reused) then reused := t :: !reused;
    Ir.Temp t
  in
  let rec go depth (v : Ir.value) : Ir.value =
    match v with
    | Ir.Const _ -> v
    | Ir.Temp t -> (
      if depth > max_clone_depth then reuse t
      else
        match Hashtbl.find_opt defs t with
        | Some (Ir.Load { src; volatile = false; _ }) ->
          let dst = temp fresh in
          instrs := Ir.Load { dst; src; volatile = false } :: !instrs;
          Ir.Temp dst
        | Some (Ir.Binop { op; lhs; rhs; _ }) ->
          let lhs = go (depth + 1) lhs in
          let rhs = go (depth + 1) rhs in
          let dst = temp fresh in
          instrs := Ir.Binop { dst; op; lhs; rhs } :: !instrs;
          Ir.Temp dst
        | Some (Ir.Icmp { op; lhs; rhs; _ }) ->
          let lhs = go (depth + 1) lhs in
          let rhs = go (depth + 1) rhs in
          let dst = temp fresh in
          instrs := Ir.Icmp { dst; op; lhs; rhs } :: !instrs;
          Ir.Temp dst
        | Some (Ir.Load { volatile = true; _ })
        | Some (Ir.Call _)
        | Some (Ir.Store _)
        | None ->
          (* volatile data, side effects, or parameters-by-convention:
             reuse the already-computed value *)
          reuse t)
  in
  let value = go 0 root in
  { instrs = List.rev !instrs; value; replicated = !fully;
    reused = List.rev !reused }

(* Complemented shadow of a temp the cloner reused verbatim,
   materialized immediately after the temp's defining instruction so it
   is live wherever the temp is. A check block that reuses t can then
   verify [t lxor shadow = 0xFFFFFFFF] before trusting t's spilled
   slot: a single corrupted word that decodes into a frame store can
   overwrite one of the two slots, but cannot keep the pair
   complementary. Memoized in [shadows] so every edge instrumented over
   the same operand shares one shadow. Returns [None] for temps with no
   defining instruction (parameters-by-convention). *)
let shadow_for (f : Ir.func) fresh defs shadows t =
  match Hashtbl.find_opt shadows t with
  | Some sh -> Some sh
  | None -> (
    match Hashtbl.find_opt defs t with
    | None -> None
    | Some def ->
      let sh = temp fresh in
      let ins =
        Ir.Binop
          { dst = sh; op = Ir.Xor; lhs = Ir.Temp t; rhs = Ir.Const 0xFFFFFFFF }
      in
      let placed = ref false in
      List.iter
        (fun (b : Ir.block) ->
          if (not !placed) && List.memq def b.instrs then begin
            b.instrs <-
              List.concat_map
                (fun i -> if i == def then [ i; ins ] else [ i ])
                b.instrs;
            placed := true
          end)
        f.blocks;
      if !placed then begin
        Hashtbl.replace shadows t sh;
        Some sh
      end
      else None)

(* Non-fatal verifier findings (Ir.Verify.lint) accumulated across the
   passes of one compile; the driver drains them into its reports. *)
let pending_warnings : (string * Ir.Verify.violation) list ref = ref []

let reset_warnings () = pending_warnings := []
let drain_warnings () =
  let ws = List.rev !pending_warnings in
  pending_warnings := [];
  ws

let collect_warnings pass_name m =
  List.iter
    (fun (v : Ir.Verify.violation) ->
      let seen =
        List.exists
          (fun (_, (v' : Ir.Verify.violation)) ->
            v'.func = v.func && v'.message = v.message)
          !pending_warnings
      in
      if not seen then pending_warnings := (pass_name, v) :: !pending_warnings)
    (Ir.Verify.lint m)

let verify_or_fail pass_name m =
  (match Ir.Verify.modul m with
  | [] -> ()
  | violations ->
    invalid_arg
      (Fmt.str "GlitchResistor pass %s broke the module:@ %a" pass_name
         Fmt.(list ~sep:cut Ir.Verify.pp_violation)
         violations));
  collect_warnings pass_name m
