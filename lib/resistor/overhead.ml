type row = {
  label : string;
  boot_cycles : int;
  text_bytes : int;
  data_bytes : int;
  bss_bytes : int;
  total_bytes : int;
}

let sensitive = [ "tick" ]

(* Each row is a named set of Config.sets under its pinned label (only
   "Returns" differs from Config.name, which says "Enums+Returns"). The
   paper's eight rows come first (their order is pinned by goldens),
   then the post-paper CFI rows the paper doesn't have. *)
let rows = List.map (fun (label, set) -> (label, Config.set ~sensitive set))

let paper_configurations =
  rows
    [ ("None", "none"); ("Branches", "branches"); ("Delay", "delay");
      ("Integrity", "integrity"); ("Loops", "loops"); ("Returns", "returns");
      ("All\\Delay", "all-but-delay"); ("All", "all") ]

let cfi_configurations =
  rows
    [ ("Sigcfi", "sigcfi"); ("Domains", "domains");
      ("All\\Delay+Sigcfi+Domains", "all-cfi") ]

let configurations = paper_configurations @ cfi_configurations

let flash_commit_cycles =
  (* subs + taken-branch per iteration, plus entry/exit *)
  4 * Lower.Runtime.flash_commit_iterations

let measure config ~label =
  let compiled = Driver.compile config Firmware.boot_tick in
  let board = Hw.Board.create (Hw.Board.Image compiled.image) in
  let boot_cycles =
    if Hw.Board.run_until_trigger ~max_cycles:2_000_000 board then
      match Hw.Board.trigger_edges board with
      | edge :: _ -> edge
      | [] -> invalid_arg "Overhead.measure: trigger lost"
    else invalid_arg ("Overhead.measure: " ^ label ^ " never finished booting")
  in
  let sizes = Lower.Layout.size_report compiled.image in
  { label;
    boot_cycles;
    text_bytes = List.assoc "text" sizes;
    data_bytes = List.assoc "data" sizes;
    bss_bytes = List.assoc "bss" sizes;
    total_bytes = List.assoc "total" sizes }

let all_rows () =
  List.map (fun (label, config) -> measure config ~label) configurations
