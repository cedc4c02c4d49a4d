type section = { base : int; size : int }

type image = {
  words : int array;
  text : section;
  data : section;
  bss : section;
  data_init : (int * int) list;
  symbols : (string * int) list;
  global_addrs : (string * int) list;
  entry : int;
  stack_top : int;
}

type error = { message : string }

exception Error of error

let pp_error ppf { message } = Fmt.string ppf message
let fail fmt = Fmt.kstr (fun message -> raise (Error { message })) fmt

let text_base = Machine.Loader.stm32_layout.flash_base
let sram_base = Machine.Loader.stm32_layout.sram_base
let sram_size = Machine.Loader.stm32_layout.sram_size

let text_bytes image =
  let b = Bytes.create (2 * Array.length image.words) in
  Array.iteri (fun i w -> Bytes.set_uint16_le b (2 * i) (w land 0xFFFF)) image.words;
  b

(* Binary search for the last entry <= addr. *)
let owner_index entries addr =
  let lo = ref 0 and hi = ref (Array.length entries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if entries.(mid) <= addr then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let link (m : Ir.modul) =
  let compiled =
    Runtime.crt0 () :: Runtime.runtime_blob ()
    :: List.map (Codegen.func m) m.Ir.funcs
  in
  (* place each unit, 4-byte aligned so literal pools stay aligned *)
  let placed, total_halfwords =
    List.fold_left
      (fun (acc, off) (c : Codegen.compiled) ->
        let off = if off land 1 = 0 then off else off + 1 in
        ((c, off) :: acc, off + Array.length c.words))
      ([], 0) compiled
  in
  let placed = List.rev placed in
  let words = Array.make total_halfwords 0 in
  List.iter
    (fun ((c : Codegen.compiled), off) ->
      Array.blit c.words 0 words off (Array.length c.words))
    placed;
  let symbols =
    List.concat_map
      (fun ((c : Codegen.compiled), off) ->
        List.map
          (fun (sym, hw) -> (sym, text_base + (2 * (off + hw))))
          c.exports)
      placed
  in
  (* globals: .data (non-zero init) first, then .bss *)
  let data_globals, bss_globals =
    List.partition (fun (g : Ir.global) -> g.init <> 0) m.Ir.globals
  in
  let data_base = sram_base in
  let data_size = 4 * List.length data_globals in
  let bss_base = data_base + data_size in
  let bss_size = 4 * List.length bss_globals in
  let global_addrs =
    List.mapi (fun i (g : Ir.global) -> (g.gname, data_base + (4 * i))) data_globals
    @ List.mapi (fun i (g : Ir.global) -> (g.gname, bss_base + (4 * i))) bss_globals
  in
  let data_init =
    List.mapi
      (fun i (g : Ir.global) -> (data_base + (4 * i), Ir.mask32 g.init))
      data_globals
  in
  let resolve_sym sym =
    match List.assoc_opt sym symbols with
    | Some addr -> addr
    | None -> fail "undefined symbol %s" sym
  in
  let resolve_global name =
    if name = "__gpio" then Codegen.gpio_trigger_address
    else
      match List.assoc_opt name global_addrs with
      | Some addr -> addr
      | None -> fail "undefined global %s" name
  in
  (* patch relocations *)
  List.iter
    (fun ((c : Codegen.compiled), base_off) ->
      List.iter
        (fun (hw, sym) ->
          let at = base_off + hw in
          let pc = text_base + (2 * at) in
          let target = resolve_sym sym in
          let off = target - (pc + 4) in
          let hi = off asr 12 in
          if hi < -1024 || hi > 1023 then fail "BL to %s out of range" sym;
          words.(at) <- Thumb.Encode.instr (Thumb.Instr.Bl_hi hi);
          words.(at + 1) <-
            Thumb.Encode.instr (Thumb.Instr.Bl_lo ((off lsr 1) land 0x7FF)))
        c.bl_relocs;
      List.iter
        (fun (hw, name) ->
          let at = base_off + hw in
          let v = resolve_global name in
          words.(at) <- v land 0xFFFF;
          words.(at + 1) <- (v lsr 16) land 0xFFFF)
        c.word_relocs)
    placed;
  { words;
    text = { base = text_base; size = 2 * total_halfwords };
    data = { base = data_base; size = data_size };
    bss = { base = bss_base; size = bss_size };
    data_init;
    symbols;
    global_addrs;
    entry = resolve_sym "__start";
    stack_top = Machine.Loader.stm32_layout.stack_top }

let write_to mem image =
  Machine.Memory.load_bytes mem ~addr:image.text.base (text_bytes image);
  List.iter
    (fun (addr, v) ->
      match Machine.Memory.write_u32 mem addr v with
      | Ok () -> ()
      | Error fault -> fail "writing data: %a" Machine.Memory.pp_fault fault)
    image.data_init

let load image =
  let mem = Machine.Memory.create () in
  let flash_size =
    let need = image.text.size in
    max 0x1000 ((need + 0xFFF) land lnot 0xFFF)
  in
  Machine.Memory.map mem ~addr:text_base ~size:flash_size;
  Machine.Memory.map mem ~addr:sram_base ~size:sram_size;
  write_to mem image;
  let cpu = Machine.Cpu.create ~sp:image.stack_top ~pc:image.entry () in
  { Machine.Loader.mem;
    cpu;
    layout =
      { Machine.Loader.stm32_layout with flash_size; stack_top = image.stack_top } }

let size_report image =
  [ ("text", image.text.size);
    ("data", image.data.size);
    ("bss", image.bss.size);
    ("total", image.text.size + image.data.size + image.bss.size) ]
