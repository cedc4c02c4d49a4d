(** Exhaustive bit-mask enumeration: every (n choose k) combination of k
    set bits within an n-bit word, as used by the paper's emulation
    framework (Section IV) to model unidirectional bit flips. *)

val popcount : int -> int
(** The number of set bits. Constant time for [0 .. 2^32 - 1]; wider
    or negative values are counted bit by bit over all 63 bits. *)

val choose : int -> int -> int
(** [choose n k] is the binomial coefficient; 0 when [k < 0 || k > n]. *)

val iter_of_weight : width:int -> weight:int -> (int -> unit) -> unit
(** Visit every [width]-bit mask with exactly [weight] set bits, in
    increasing numeric order. *)

val of_weight : width:int -> weight:int -> int list

val deposit : int -> into:int -> int
(** [deposit i ~into:bits] places the low bits of [i], lowest first, on
    the set positions of [bits] (a software PDEP): for
    [0 <= i < 2^popcount bits], the [i]-th subset of [bits] in
    increasing numeric order. *)

val next_subset : int -> within:int -> int
(** [next_subset s ~within:bits] is the subset of [bits] that follows
    [s] in increasing numeric order, so
    [next_subset (deposit i ~into:bits) ~within:bits =
    deposit (i + 1) ~into:bits]; it wraps from [bits] to 0. *)
