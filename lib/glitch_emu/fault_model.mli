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
