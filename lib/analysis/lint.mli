(** The defense auditor: lint rules that verify GlitchResistor
    postconditions in the artifact rather than trusting the compiler
    (the SCRAMBLE-CFI argument).

    Rules and severities:

    - [cfg-fallthrough], [cfg-target] (Error): recovered control flow
      leaves the image;
    - [guard-flippable] (Error when the owning function has guards with
      no complemented duplicate, Info when protected or runtime
      support, Warning without IR): every conditional branch is one
      bit-flip away from its complement — the severity says whether
      anything re-checks it;
    - [branch-duplication], [loop-false-edge] (Error): a configured
      Branches/Loops pass left an edge unchecked; [loop-false-edge] is
      a Warning when Branches ran without Loops (the ablation gap);
    - [enum-hamming], [return-hamming]: diversified constants checked
      at the binary level — pairwise Hamming distance >= 8 and actual
      presence in the image;
    - [integrity-shadow] (Error): stores/loads of a protected global
      must pair with its complement shadow in the same block;
    - [cfcss-signature] (Error per unchecked entry): signed blocks must
      be entered through a signature check; the clean-audit Info spells
      out the Table VII limitation — legal-edge direction flips remain
      invisible, so CFCSS-only firmware still carries [guard-flippable]
      errors;
    - [verify-warning] (Warning): {!Ir.Verify.lint} findings collected
      after each pass;
    - [cfg-unreachable], [cfg-computed] (Info), [cfg-undecodable],
      [cfg-dangling-bl] (Warning): disassembly anomalies. *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type diag = {
  rule : string;
  severity : severity;
  func : string;
  addr : int;
  message : string;
}

type target = {
  image : Lower.Layout.image;
  modul : Ir.modul option;
  config : Resistor.Config.t option;
  reports : Resistor.Driver.reports option;
  cfcss : Resistor.Cfcss.report option;
}

type report = {
  cfg : Cfg.t;
  surface : Surface.t;
  diags : diag list;  (** sorted: errors first, then rule, then addr *)
}

val of_image : Lower.Layout.image -> target
(** Image-only lint: no IR to consult, so guard findings degrade to
    warnings. *)

val of_compiled : Resistor.Driver.compiled -> target
val of_instrs : Thumb.Instr.t list -> target
(** Wrap an assembled snippet as a one-symbol image. *)

val run : target -> report

val errors : report -> diag list
val warnings : report -> diag list
val count : severity -> report -> int

val diag_to_json : diag -> Json.t
(** [{"rule","severity","func","addr","message"}], [addr] as a
    [0x%08x] string. *)

val to_json : report -> Json.t
(** Finding counts, the image score and every diag, in report order. *)

val pp_diag : diag Fmt.t
val pp : report Fmt.t

(**/**)

(* exposed for tests *)
type protection =
  | Protected
  | Unguarded of { branches : int; loops : int }
  | No_conditionals

val audit_func : Ir.func -> protection
val min_pairwise : int list -> int
val constant_in_image : Lower.Layout.image -> int -> bool
