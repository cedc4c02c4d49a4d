(** The GlitchResistor compile pipeline: Mini-C source in, defended
    firmware image out.

    Stage order mirrors the paper's architecture — one source-to-source
    rewriter (the clang-level ENUM pass) followed by IR passes:

    + parse, check, {!Enum_rewriter} (then re-check: the rewritten
      source must still be a valid program);
    + lower to IR;
    + {!Delay} (first, so its generator and init code are themselves
      protected by the passes that follow);
    + {!Returns}, {!Branches}, {!Loops}, {!Integrity};
    + the Table VII baseline {!Cfcss};
    + the post-paper CFI passes {!Domains} then {!Sigcfi} (last, so
      their check blocks are not re-instrumented and the running
      signature covers the domain checks);
    + verify, code-generate, link.

    A configuration's defense list is already in this order
    ({!Config.t}); each listed pass runs once and fills its own
    report field.

    Firmware may call the board intrinsics [__trigger_high()],
    [__trigger_low()] and [__halt()]. *)

type reports = {
  enum_report : Enum_rewriter.report option;
  returns_report : Returns.report option;
  integrity_report : Integrity.report option;
  branches_report : Branches.report option;
  loops_report : Loops.report option;
  delay_report : Delay.report option;
  cfcss_report : Cfcss.report option;
  domains_report : Domains.report option;
  sigcfi_report : Sigcfi.report option;
  verify_warnings : (string * Ir.Verify.violation) list;
      (** pass-tagged {!Ir.Verify.lint} findings (unreachable blocks,
          maybe-undefined temps) from the after-every-pass verifier *)
}

type compiled = {
  config : Config.t;
  modul : Ir.modul;
  image : Lower.Layout.image;
  reports : reports;
}

val firmware_externs : (string * int) list

val compile_modul : Config.t -> string -> Ir.modul * reports
(** Source through all enabled passes; module verified. *)

val compile : Config.t -> string -> compiled
(** [compile_modul] plus code generation and linking. *)
