(** Deterministic stateless randomness for the physical fault model.

    Every stochastic decision in the glitch simulation is a pure
    function of (seed, coordinates), so an entire campaign is exactly
    reproducible, and — critically for the multi-glitch experiments —
    two attempts with the *same* glitcher parameters but different
    attempt nonces draw independent noise while sharing the same
    underlying susceptibility landscape, which is what produces the
    paper's partial-vs-full correlation. *)

val hash : seed:int -> int list -> int
(** SplitMix64-style avalanche of the seed and coordinates; uniform over
    62 bits (non-negative OCaml int). *)

val u01 : seed:int -> int list -> float
(** Uniform float in [0, 1). *)

val bits : seed:int -> int list -> width:int -> int
(** Uniform [width]-bit integer ([1 <= width <= 32]). *)

(** {2 Fixed-arity draws}

    [hash2 ~seed a b = hash ~seed [ a; b ]], and likewise for four and
    five coordinates, without building the list or boxing the Int64
    state: the per-cycle draw sites of the glitch simulation use these. *)

val hash2 : seed:int -> int -> int -> int
val hash4 : seed:int -> int -> int -> int -> int -> int
val hash5 : seed:int -> int -> int -> int -> int -> int -> int

(** {2 Prefix draws}

    Draws that share their seed and first three coordinates share the
    fold over them. {!set_prefix} stores that fold state in 8-byte slot
    [slot] of a [Bytes] (raw 64 bits, which an OCaml [int] could not
    hold), and the draws fold only the rest: after
    [set_prefix b slot ~seed a c d],
    [prefixed4 b slot e = hash4 ~seed a c d e] and
    [prefixed5 b slot e f = hash5 ~seed a c d e f]. *)

val set_prefix : Bytes.t -> int -> seed:int -> int -> int -> int -> unit
val prefixed4 : Bytes.t -> int -> int -> int
val prefixed5 : Bytes.t -> int -> int -> int -> int

val to_u01 : int -> float
(** [to_u01 (hash ~seed coords) = u01 ~seed coords]: the low 46 bits of
    the hash, [m], over [2^46]. *)

(** {2 Integer draws}

    A draw that fires with probability [p] compares [to_u01 h < p]. The
    simulation's draws make the same comparison on integers, with no
    float built per draw: [to_u01 h] is [m / 2^46] for an integer
    [m = h land u01_mask < 2^46], and multiplying by [2^46] is exact, so
    [to_u01 h < p] holds exactly when [m < ceil (p * 2^46)]. That bound,
    clamped to [[0, 2^46]], is {!threshold}[ p]. [floor] would be wrong
    whenever [p * 2^46] is not an integer: [m = floor (p * 2^46)] is
    below [p * 2^46] but not below its floor. *)

val u01_mask : int
(** [0x3FFFFFFFFFFF]: the 46 bits of a hash {!to_u01} reads. *)

val threshold : float -> int
(** [threshold p] is [ceil (p * 2^46)] clamped to [[0, 2^46]] (0 for a
    NaN), so that [h land u01_mask < threshold p] iff [to_u01 h < p],
    for every [h]: a draw that fires with probability [p] is
    [h land u01_mask < threshold p]. *)

val thresholds : scale:float -> float array -> int array -> unit
(** [thresholds ~scale ps ts] sets [ts.(k)] to
    [threshold (scale *. ps.(k))] for every [k] of [ps]: one call, and
    one float passed, for a whole row of gates. *)

val to_bits : int -> width:int -> int
(** [to_bits (hash ~seed coords) ~width = bits ~seed coords ~width]. *)
