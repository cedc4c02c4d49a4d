(** Tables IV and V: run-time (boot clock cycles) and size (bytes per
    section) overhead of each defense on the {!Firmware.boot_tick}
    image. Boot time is measured like the paper's DWT reads: the cycle
    counter value when the firmware raises its boot-complete trigger. *)

type row = {
  label : string;  (** "None", "Branches", ..., "All" *)
  boot_cycles : int;
  text_bytes : int;
  data_bytes : int;
  bss_bytes : int;
  total_bytes : int;
}

val paper_configurations : (string * Config.t) list
(** The paper's rows: None, Branches, Delay, Integrity, Loops, Returns,
    All\Delay, All (enums ride along with Returns in size terms and are
    exercised by All). *)

val cfi_configurations : (string * Config.t) list
(** The post-paper CFI rows: Sigcfi, Domains, and All\Delay with both
    CFI passes stacked on top. *)

val configurations : (string * Config.t) list
(** [paper_configurations @ cfi_configurations]. *)

val all_rows : unit -> row list

val flash_commit_cycles : int
(** The constant flash-seed-update cost included in any Delay row
    (Table IV's "Constant" column). *)
