(** Instruction-level bit-flip models.

    Published fault characterisations (cited in Section IV of the paper)
    find glitch-induced flips to be mostly unidirectional: clock and
    voltage glitches overwhelmingly clear bits (1 -> 0, the [And] model)
    while some technologies set them (0 -> 1, the [Or] model).
    Bidirectional flips ([Xor]) are possible but improbable. *)

type flip =
  | And  (** clear the bits not selected by the mask: [word land mask] *)
  | Or  (** set the bits selected by the mask: [word lor mask] *)
  | Xor  (** toggle the bits selected by the mask: [word lxor mask] *)

val all : flip list
val name : flip -> string

val apply : flip -> mask:int -> int -> int

val identity_mask : flip -> width:int -> int
(** The mask that leaves a word unmodified: all-ones for [And], zero for
    [Or]/[Xor]. *)

val mask_of_bits : flip -> width:int -> int -> int
(** The identity mask with the positions of the bit-set [bits] inverted:
    the mask that can change exactly those bits under every model. The
    one bit-set to mask rule; sweeps enumerate bit-sets by weight. *)

val flipped_bits : flip -> width:int -> mask:int -> int
(** How many bit positions the mask can possibly change: for [And] the
    number of zeros in the mask, for [Or]/[Xor] the number of ones. This
    is the x-axis of Figure 2. *)

val changeable : flip -> width:int -> int -> int
(** [changeable flip ~width target] is the bits of [target] the model
    can change: its set bits under [And] (AND can only clear), its clear
    bits under [Or] (OR can only set), all [width] bits under [Xor]. The
    [2^width] masks map [target] onto exactly the words [target lxor s],
    [s] a subset of these bits: 2^p words under [And], 2^(width - p)
    under [Or] and 2^width under [Xor], for [p] the set bits of
    [target]. *)

val preimages :
  flip -> width:int -> target:int -> changed:int -> weight:int -> int
(** How many masks of {!flipped_bits} [weight] map [target] onto one
    word of its image that differs from [target] in [changed] bits: the
    same for every such word, [choose inert (weight - changed)], where
    the [inert = width - popcount changeable] bits are those a mask can
    select without effect. Over all words and weights these counts sum
    to [2^width]. *)
