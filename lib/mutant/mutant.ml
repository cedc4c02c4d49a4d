type t =
  | Branches_complement
  | Sigcfi_checks
  | Domains_checks
  | Absint_taint
  | State_key_byte

let all =
  [ Branches_complement; Sigcfi_checks; Domains_checks; Absint_taint;
    State_key_byte ]

let name = function
  | Branches_complement -> "branches-complement"
  | Sigcfi_checks -> "sigcfi-checks"
  | Domains_checks -> "domains-checks"
  | Absint_taint -> "absint-taint"
  | State_key_byte -> "state-key-byte"

let slot : t option Atomic.t = Atomic.make None

let is m = match Atomic.get slot with Some a -> a = m | None -> false

let with_ m f =
  let prev = Atomic.exchange slot m in
  Fun.protect ~finally:(fun () -> Atomic.set slot prev) f
