(** Exhaustive bit-mask enumeration: every (n choose k) combination of k
    set bits within an n-bit word, as used by the paper's emulation
    framework (Section IV) to model unidirectional bit flips. *)

val popcount : int -> int

val choose : int -> int -> int
(** [choose n k] is the binomial coefficient; 0 when [k < 0 || k > n]. *)

val iter_of_weight : width:int -> weight:int -> (int -> unit) -> unit
(** Visit every [width]-bit mask with exactly [weight] set bits, in
    increasing numeric order. *)

val of_weight : width:int -> weight:int -> int list
