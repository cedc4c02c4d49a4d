(** A minimal JSON codec — the dependency set has no JSON library.
    Every machine-readable report in the repository is a {!t} printed
    by {!to_string}. Covers all of JSON except that numbers are split
    into [Int] (exact 63-bit integers) and [Float], and [\u]-escapes
    outside the BMP are not recombined into surrogate pairs. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. Strings
    are byte sequences passed through unchanged apart from the escapes
    (so UTF-8 stays UTF-8); a non-finite [Float] prints as [null].
    [of_string] of the output re-prints byte-identically. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; anything but trailing whitespace
    after it is an error. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val string_value : t -> string option
val int_value : t -> int option
val bool_value : t -> bool option
