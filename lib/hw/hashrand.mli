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

val to_u01 : int -> float
(** [to_u01 (hash ~seed coords) = u01 ~seed coords]. *)

val to_bits : int -> width:int -> int
(** [to_bits (hash ~seed coords) ~width = bits ~seed coords ~width]. *)
