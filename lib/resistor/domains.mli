(** SCRAMBLE-CFI-flavoured scramble domains (post-paper extension).

    Functions are partitioned into keyed clusters; a volatile domain
    register ({!domain_global}) must hold the current cluster's key.
    Cross-domain calls are bracketed with compile-time XOR bridges
    ([key_src xor key_dst], nonzero by construction) and every function
    entry and return checks the register against its own cluster key,
    routing mismatches into {!Detect}. Control flow that escapes its
    domain without passing a bridge fails its next check. *)

type report = {
  domains : (string * int) list;  (** function -> cluster index *)
  clusters : int;
  bridges : int;  (** cross-domain call sites bracketed *)
  checks_inserted : int;  (** entry + return checks *)
  key : int;
}

val domain_global : string
(** Name of the volatile domain register ("__domains_D"). *)

val bridge_fn : string
(** Name of the out-of-line XOR helper ("__gr_domains_xor"): each
    bridge half calls it with the compile-time bridge constant. *)

val default_key : int

val cluster_key : key:int -> int -> int
(** Distinct nonzero GF(2^8) key of cluster [d]: [key * alpha^(d+1)]. *)

val partition : key:int -> Ir.modul -> (string * int) list * int
(** Deterministic keyed partition (function -> cluster, cluster
    count); [main] anchors cluster 0, "__gr_" runtime helpers are
    excluded. *)

val run : ?key:int -> Config.reaction -> Ir.modul -> report
(** Instrument every function (except the detector); verifies the
    module. @raise Invalid_argument if [key] is outside 1..255. *)
