(** The Mini-C firmware used by the paper's defense evaluation:

    - {!boot_tick}: the Tables IV/V workload — a CubeMX-style boot
      (clock + UART init with constant return codes and an enum status),
      a sensitive tick counter, and an infinite tick loop with an
      impossible success branch. The firmware raises the trigger pin
      exactly when boot completes, so boot time is the cycle stamp of
      the first trigger edge.
    - {!guard_loop}: Table VI's worst case, [while (!a)] over a volatile
      sensitive global; escaping writes the attack marker.
    - {!if_success}: Table VI's best case, [if (a == SUCCESS)] on an
      uninitialized-enum status with [a] initialised to [FAILURE]. *)

val boot_tick : string
val guard_loop : string
val if_success : string

val attack_marker_global : string
(** ["attack_success"]; holds {!attack_marker_value} after a successful
    attack. *)

val attack_marker_value : int
(** [0xAA] *)
