type layout = {
  flash_base : int;
  flash_size : int;
  sram_base : int;
  sram_size : int;
  stack_top : int;
}

let stm32_layout =
  { flash_base = 0x08000000;
    flash_size = 128 * 1024;
    sram_base = 0x20000000;
    sram_size = 16 * 1024;
    stack_top = 0x20003FF0 }

let snippet_layout =
  { stm32_layout with
    flash_size = 0x400;
    sram_size = 0x400;
    stack_top = stm32_layout.sram_base + 0x400 - 16 }

type t = { mem : Memory.t; cpu : Cpu.t; layout : layout }

let load_instrs ?(layout = stm32_layout) instrs =
  let mem = Memory.create () in
  Memory.map mem ~addr:layout.flash_base ~size:layout.flash_size;
  Memory.map mem ~addr:layout.sram_base ~size:layout.sram_size;
  Memory.load_bytes mem ~addr:layout.flash_base (Thumb.Encode.to_bytes instrs);
  let cpu = Cpu.create ~sp:layout.stack_top ~pc:layout.flash_base () in
  { mem; cpu; layout }

let load_asm src = load_instrs (Thumb.Asm.assemble src)

let patch_word t ~index w =
  match Memory.write_u16 t.mem (t.layout.flash_base + (2 * index)) w with
  | Ok () -> ()
  | Error fault ->
    invalid_arg (Fmt.str "Loader.patch_word: %a" Memory.pp_fault fault)
