(** The catalog of seeded defects: deliberately broken variants of the
    defenses and engines that the test oracles must catch. Each one is a
    negative control — a mutant that no test kills means that test
    proves nothing.

    At most one mutant is armed at a time, process-wide, through one
    atomic slot. Production code asks {!is} at the one place its defect
    lives; nothing is armed unless a caller runs under {!with_}. *)

type t =
  | Branches_complement
      (** Branches/Loops check blocks compare a complemented clone with
          itself: every re-check is a tautology and detects nothing. *)
  | Sigcfi_checks  (** Sigcfi emits no sink (return) checks. *)
  | Domains_checks
      (** Domains emits no entry/return checks (bridges stay). *)
  | Absint_taint
      (** The static pre-pruner's transfer function drops all fault
          taint, so it "proves" continuations it never tracked. *)
  | State_key_byte
      (** [Exhaust.State.key] omits the lowest-address touched byte that
          differs from pristine, so states differing only there share
          one key. *)

val all : t list
(** Every mutant, in declaration order. *)

val name : t -> string
(** Kebab-case name, as the [--mutant] option and corpus headers
    spell it ([branches-complement], [state-key-byte], ...). *)

val is : t -> bool
(** [is m]: [m] is the armed mutant. *)

val with_ : t option -> (unit -> 'a) -> 'a
(** [with_ m f] arms [m] ([None]: none) for the duration of [f], then
    restores the previous slot, on return or exception. *)
