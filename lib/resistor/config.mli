(** GlitchResistor configuration: which defenses to apply (they compose
    "a la carte", as evaluated in Tables IV and V), which globals are
    sensitive, where random delays go, and what to do on detection.
    The one registry of defenses and of the named defense sets: every
    other layer reads them from here. *)

type delay_scope =
  | Delay_everywhere  (** every basic block ending in a branch *)
  | Delay_opt_in of string list  (** only the listed functions *)
  | Delay_opt_out of string list  (** everywhere except the listed functions *)

type reaction =
  | Spin  (** deny service: loop forever in the detector *)
  | Halt  (** stop the core (breakpoint) *)
  | Record  (** count and continue (evaluation harnesses) *)

type defense =
  | Enums  (** ENUM Rewriter (source-to-source) *)
  | Returns  (** non-trivial return codes *)
  | Integrity  (** sensitive-variable shadow complements *)
  | Branches  (** conditional-branch duplication *)
  | Loops  (** loop-guard duplication *)
  | Delay  (** random timing injection *)
  | Sigcfi  (** FIPAC-style keyed running-signature CFI (post-paper) *)
  | Domains  (** SCRAMBLE-CFI-style keyed function clusters (post-paper) *)
  | Cfcss  (** CFCSS signature checking, the Table VII baseline *)

type t = {
  defenses : defense list;
      (** in pipeline order (Enums, Delay, Returns, Branches, Loops,
          Integrity, Cfcss, Domains, Sigcfi), no duplicates: build it
          with {!make}, so that [=] means "same defenses" *)
  delay_scope : delay_scope;
  sensitive : string list;  (** globals protected by the integrity pass *)
  reaction : reaction;
}

val all_defenses : defense list
(** In report-label order: the paper's passes, then the post-paper ones. *)

val make : ?sensitive:string list -> defense list -> t
(** The given defenses (any order), delays everywhere, [Spin]. *)

val none : t
(** Baseline: nothing enabled. *)

val all : ?sensitive:string list -> unit -> t
(** Every paper defense — the paper's "All" configuration. The
    post-paper passes stay off so the paper's rows are reproducible. *)

val all_but_delay : ?sensitive:string list -> unit -> t
(** The paper's "All\Delay" configuration. *)

val defense_to_string : defense -> string
(** Lower-case name: ["enums"], ["returns"], ..., ["cfcss"]. *)

val defense_of_string : string -> defense option

val sets : (string * defense list) list
(** The named sets [--defenses] accepts, in [--help] order: [none],
    [all], [all-but-delay] (alias [all\delay]), one per pass ([returns]
    brings Enums along), [cfi] (both post-paper CFI passes), [all-cfi]
    (all-but-delay plus both) and [cfcss]. *)

val set : ?sensitive:string list -> string -> t
(** [make] of a named set. Raises [Invalid_argument] for a name not in
    {!sets}. *)

val name : t -> string
(** "None", "Branches", "All\\Delay", "All\\Delay+Sigcfi+Domains", ...
    for report rows. *)
