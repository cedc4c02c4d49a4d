let attack_marker_global = "attack_success"
let attack_marker_value = 0xAA

(* Tables IV/V: a CubeMX-flavoured firmware. Boot initialises the
   (simulated) clock and UART through functions with constant return
   codes, calibrates a delay loop, then raises the trigger to mark
   boot-complete and falls into the tick loop. The success function is
   reachable only if the sensitive tick counter reads zero — designed to
   be impossible, exactly like the paper's evaluation firmware. *)
let boot_tick =
  {|
enum boot_status { BOOT_OK, BOOT_FAIL, CLOCK_READY, UART_READY };

volatile unsigned tick = 1;
volatile unsigned sys_clock = 0;
volatile unsigned uart_ready = 0;
volatile unsigned attack_success = 0;

int clock_init(void) {
  sys_clock = 48;
  return 42;
}

int uart_init(void) {
  uart_ready = 1;
  return 42;
}

int hal_init(void) {
  int calibrate = 0;
  for (int i = 0; i < 64; i = i + 1) {
    calibrate = calibrate + i;
  }
  if (clock_init() == 42) {
    if (uart_init() == 42) {
      return calibrate;
    }
  }
  return 0;
}

int check_tick(void) {
  if (tick == 0) { return BOOT_OK; }
  return BOOT_FAIL;
}

void success(void) {
  attack_success = 170;
}

int main(void) {
  int boot = hal_init();
  __trigger_high();
  while (1) {
    if (check_tick() == BOOT_OK) {
      success();
      __halt();
    }
    tick = tick + 1;
    if (tick == 0) { tick = 1; }
  }
  return boot;
}
|}

(* Table VI worst case: the most glitchable guard from Section V,
   compiled with the defenses. The volatile qualifier means a glitched
   first load can satisfy every duplicated check (the paper's stated
   lower bound for the defenses). *)
let guard_loop =
  {|
volatile unsigned a = 0;
volatile unsigned attack_success = 0;

int main(void) {
  __trigger_high();
  while (!a) { }
  attack_success = 170;
  __trigger_low();
  __halt();
  return 0;
}
|}

(* Table VI best case: a guarded if on an uninitialized enum — every
   defense participates (enum diversification widens the Hamming gap,
   branch duplication re-checks, integrity shadows the flag). *)
let if_success =
  {|
enum status { SUCCESS, FAILURE };

volatile unsigned a = FAILURE;
volatile unsigned attack_success = 0;

int main(void) {
  __trigger_high();
  if (a == SUCCESS) {
    attack_success = 170;
  }
  __trigger_low();
  __halt();
  return 0;
}
|}
