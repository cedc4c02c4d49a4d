type params = {
  width : int;
  offset : int;
  ext_offset : int;
  repeat : int;
  trigger_index : int;
}

let single ~width ~offset ~ext_offset =
  { width; offset; ext_offset; repeat = 1; trigger_index = 0 }

let with_repeat p repeat = { p with repeat }

type observation = {
  stop : [ `Stopped of Machine.Exec.stop | `Timeout ];
  cycles : int;
  fired : int;
  glitched_cycles : int;
  replayed_cycles : int;
  tail_cycles : int;
}

let imax (a : int) b = if a > b then a else b
let imin (a : int) b = if a < b then a else b

(* --- per-attempt state -----------------------------------------------------

   Everything an attempt keeps besides the board, in one record that a
   domain reuses for all its attempts: an attempt writes its counters,
   schedule, gates and window state into the arrays in place and
   allocates nothing of its own until its observation. *)

type state = {
  mutable n : int;  (* schedule entries, in [entries.(0 .. n-1)] *)
  mutable entries : params array;
  mutable gates : Susceptibility.gates array;  (* per entry *)
  (* Window state, for [seen_edges] trigger edges. An entry whose edge
     exists spans the absolute cycles [w_lo, w_hi); one still waiting
     for its edge has [w_lo = w_hi = max_int], which overlaps nothing. *)
  mutable seen_edges : int;  (* -1: not computed for this attempt *)
  mutable edges : int array;
  mutable w_lo : int array;
  mutable w_hi : int array;
  (* From cycle [closed_at] on every window has closed; from [dead_at]
     on every window has closed or waits for an edge the unglitched run
     never raises ([baseline_edges] of them, -1 without a baseline).
     Every anchored window lies within [span_lo, span_hi). *)
  mutable closed_at : int;
  mutable dead_at : int;
  mutable baseline_edges : int;
  mutable span_lo : int;
  mutable span_hi : int;
  mutable fired : int;
  mutable glitched : int;
  (* true while no fault has been applied to any step: the execution so
     far is bit-identical to the unglitched run *)
  mutable pristine : bool;
  mutable cut : int;  (* cycles the dead-schedule cutoff served *)
  mutable plain : int;  (* cycles the plain tail emulated *)
  (* Corruption planted in the decode/fetch stages materialises when the
     victim address is reached: [planted.(k)] waits for pc [victims.(k)],
     one per address, k < [n_planted]. A branch in between flushes the
     pipeline and the planted corruption with it: the entry is simply
     never consumed. *)
  mutable n_planted : int;
  mutable victims : int array;
  mutable planted : Board.applied array;
}

let create_state () =
  { n = 0;
    entries = [||];
    gates = [||];
    seen_edges = -1;
    edges = Array.make 4 0;
    w_lo = [||];
    w_hi = [||];
    closed_at = max_int;
    dead_at = max_int;
    baseline_edges = -1;
    span_lo = max_int;
    span_hi = min_int;
    fired = 0;
    glitched = 0;
    pristine = true;
    cut = 0;
    plain = 0;
    n_planted = 0;
    victims = Array.make 4 0;
    planted = Array.make 4 Board.Normal }

let state_key = Domain.DLS.new_key create_state

let rec fill_entries st i = function
  | [] -> ()
  | p :: rest ->
    st.entries.(i) <- p;
    fill_entries st (i + 1) rest

(* Make room for [n] entries, growing the arrays when [n] is more than
   any schedule the state held before. *)
let reserve st n =
  if n > Array.length st.entries then begin
    let cap = imax n (2 * Array.length st.entries) in
    st.entries <- Array.make cap (single ~width:0 ~offset:0 ~ext_offset:0);
    st.gates <- Array.init cap (fun _ -> Susceptibility.make_gates ());
    st.w_lo <- Array.make cap 0;
    st.w_hi <- Array.make cap 0
  end;
  st.n <- n

(* Copy [schedule] into [st], each entry's gates at its own point. *)
let load_schedule st schedule =
  reserve st (List.length schedule);
  fill_entries st 0 schedule;
  for i = 0 to st.n - 1 do
    let p = st.entries.(i) in
    Susceptibility.fill_gates st.gates.(i) ~width:p.width ~offset:p.offset
  done

(* Copy [shape] into [st], every entry's gates at ([width], [offset]). *)
let load_shape st shape ~width ~offset =
  reserve st (Array.length shape);
  for i = 0 to st.n - 1 do
    st.entries.(i) <- shape.(i);
    Susceptibility.fill_gates st.gates.(i) ~width ~offset
  done

(* The window state for the first [n_edges] stamps of [st.edges]. *)
let anchor st ~n_edges =
  let closed_at = ref min_int and dead_at = ref min_int in
  let span_lo = ref max_int and span_hi = ref min_int in
  for i = 0 to st.n - 1 do
    let p = st.entries.(i) in
    if p.trigger_index < n_edges then begin
      let lo = st.edges.(p.trigger_index) + p.ext_offset in
      let hi = lo + p.repeat in
      st.w_lo.(i) <- lo;
      st.w_hi.(i) <- hi;
      closed_at := imax !closed_at hi;
      dead_at := imax !dead_at hi;
      span_lo := imin !span_lo lo;
      span_hi := imax !span_hi hi
    end
    else begin
      st.w_lo.(i) <- max_int;
      st.w_hi.(i) <- max_int;
      (* a window whose edge has not come yet may still open ... *)
      closed_at := max_int;
      (* ... on a pristine board only if the unglitched run raises that
         edge *)
      if p.trigger_index < st.baseline_edges then dead_at := max_int
    end
  done;
  st.seen_edges <- n_edges;
  st.closed_at <- !closed_at;
  st.dead_at <- !dead_at;
  st.span_lo <- !span_lo;
  st.span_hi <- !span_hi

let refresh_windows st board =
  let n_edges = Board.edge_count board in
  if n_edges > Array.length st.edges then
    st.edges <- Array.make (2 * n_edges) 0;
  for i = 0 to n_edges - 1 do
    st.edges.(i) <- Board.edge board i
  done;
  anchor st ~n_edges

(* Which armed window overlaps [start, start+duration)? The index of its
   entry, or -1. When several windows overlap, the one containing the
   earliest *absolute* cycle wins (the first listed on a tie). Ties
   between windows anchored to different trigger edges must compare
   absolute cycles: comparing [lo - edge] across edges (as an earlier
   version did) could resolve a multi-trigger schedule to the later
   window just because its own trigger fired more recently. *)
let window_index st ~start ~duration =
  let best = ref (-1) and best_lo = ref 0 in
  for i = 0 to st.n - 1 do
    let lo = imax st.w_lo.(i) start
    and hi = imin st.w_hi.(i) (start + duration) in
    if lo < hi && (!best < 0 || lo < !best_lo) then begin
      best := i;
      best_lo := lo
    end
  done;
  !best

(* The overlapping cycle's position relative to the window's own edge. *)
let relative_cycle st i ~start =
  imax st.w_lo.(i) start - st.w_lo.(i) + st.entries.(i).ext_offset

let active_window schedule edges ~start ~duration =
  let st = create_state () in
  load_schedule st schedule;
  st.edges <- Array.of_list edges;
  anchor st ~n_edges:(Array.length st.edges);
  match window_index st ~start ~duration with
  | -1 -> None
  | i -> Some (st.entries.(i), relative_cycle st i ~start)

(* What an effect does to the step, given the glitch point it was drawn
   at; [Normal] exactly when it does not fire. *)
let concretise ~width ~offset ~cycle (instr : Thumb.Instr.t)
    (effect : Susceptibility.effect) : Board.applied =
  match effect with
  | Susceptibility.No_fault -> Board.Normal
  | Susceptibility.Skip -> Board.As_nop
  | Susceptibility.Corrupt_fetch ->
    let word = Thumb.Encode.instr instr in
    let word' = Susceptibility.corrupt_word ~width ~offset ~cycle word in
    if word' = word then Board.Normal else Board.Fetch_word word'
  | Susceptibility.Load_residue v -> Board.Load_value v
  | Susceptibility.Load_bitflip -> Board.Load_mangle { width; offset; cycle }
  | Susceptibility.Flip_z -> Board.Z_flip
  | Susceptibility.Pc_corrupt ->
    (* corrupting the prefetch address sends the core into unmapped or
       unintended memory; derive a deterministic bogus target *)
    let draw = Hashrand.hash4 ~seed:Susceptibility.seed 8 width offset cycle in
    Board.Pc_set (0x1000 + (2 * Hashrand.to_bits draw ~width:16))

(* --- pristine-continuation baseline ---------------------------------------

   A replayed attempt whose every window has closed without applying a
   fault is, from that cycle on, exactly the unglitched run: the board
   state equals what a glitch-free run reaches at the same cycle, every
   future stochastic decision needs a window, and no window can open
   again. The baseline captures that unglitched continuation once — end
   state, stop reason, and how many trigger edges ever appear — so the
   sweep kernel can cut such attempts short and jump to the recorded end
   state instead of emulating hundreds of dead spin cycles.

   The end state is a write-set delta, not an image: every address the
   unglitched run wrote after the trigger, with its end value. A board
   cut off mid-run holds the snapshot plus a prefix of those writes, so
   writing the whole set lands exactly on the end state. A diff of the
   end image against the snapshot would not: a byte written and later
   written back to its snapshot value is absent from the diff, yet stale
   on a board cut off between the two stores. *)

type recorded = {
  b_max_cycles : int;
  b_from_cycles : int;  (* cycle stamp of the snapshot the run starts from *)
  b_stop : [ `Stopped of Machine.Exec.stop | `Timeout ];
  b_end : Board.delta;
  b_cycles : int;
  b_edges : int;  (* trigger edges ever raised by the unglitched run *)
}

(* Always [Some]: boxed once here, so an attempt hands it to the loop
   without boxing an option of its own. *)
type baseline = recorded option

let baseline ?(max_cycles = 3_000) board ~from =
  Board.seal board from;
  let from_cycles = Board.cycles board in
  let stop = Board.run_plain_to board max_cycles in
  Some
    { b_max_cycles = max_cycles;
      b_from_cycles = from_cycles;
      b_stop = stop;
      b_end = Board.delta board;
      b_cycles = Board.cycles board;
      b_edges = Board.edge_count board }

(* The slot of [pc] among the planted victims, or [n_planted]. *)
let rec planted_slot st pc k =
  if k = st.n_planted || st.victims.(k) = pc then k
  else planted_slot st pc (k + 1)

(* Plant [applied] for pc [victim], replacing what was planted there. *)
let plant st victim applied =
  let k = planted_slot st victim 0 in
  if k = st.n_planted then begin
    if k = Array.length st.victims then begin
      st.victims <- Array.append st.victims (Array.make k 0);
      st.planted <- Array.append st.planted (Array.make k Board.Normal)
    end;
    st.victims.(k) <- victim;
    st.n_planted <- k + 1
  end;
  st.planted.(k) <- applied

(* The corruption planted for [pc], taken out; [Normal] when there is
   none (a planted step is never [Normal]). *)
let take_planted st pc =
  let k = planted_slot st pc 0 in
  if k = st.n_planted then Board.Normal
  else begin
    let applied = st.planted.(k) and last = st.n_planted - 1 in
    st.victims.(k) <- st.victims.(last);
    st.planted.(k) <- st.planted.(last);
    st.n_planted <- last;
    applied
  end

(* The fault, if any, that the armed windows put on [instr] at [pc]. *)
let glitch st board ~nonce instr ~pc ~start =
  if start >= st.span_hi then Board.Normal
  else
    (* overlap is tested against the cycles the instruction will
       actually consume: a not-taken branch occupies 1 cycle, so a
       glitch must not fire in the 2 phantom cycles of the taken
       duration (they never elapse — Board.step advances by the
       actual cost) *)
    let duration = Board.instr_duration board instr in
    if start + duration <= st.span_lo then Board.Normal
    else
      match window_index st ~start ~duration with
      | -1 -> Board.Normal
      | i -> (
        st.glitched <- st.glitched + 1;
        let p = st.entries.(i) and gates = st.gates.(i) in
        let cycle = relative_cycle st i ~start in
        let nonce = (nonce * 31) + p.trigger_index in
        (* Which of the Cortex-M0's three pipeline stages does the
           glitch disturb? Decode and fetch hold the next two
           instructions. *)
        match Susceptibility.stage ~gates ~cycle with
        | 0 ->
          let effect =
            Susceptibility.roll_gated ~sustained:(p.repeat > 4) ~gates ~cycle
              ~nonce ~instr ~sp:(Board.reg board 13)
          in
          let applied =
            concretise ~width:(Susceptibility.gates_width gates)
              ~offset:(Susceptibility.gates_offset gates) ~cycle instr effect
          in
          (match applied with
          | Board.Normal -> ()
          | _ -> st.fired <- st.fired + 1);
          applied
        | bytes ->
          let victim = pc + bytes in
          (if Susceptibility.back_stage_fires ~gates ~cycle ~nonce then
             match Board.word_at board victim with
             | None -> ()
             | Some victim_word ->
               st.fired <- st.fired + 1;
               plant st victim
                 (if Susceptibility.plant_skips ~gates ~cycle then Board.As_nop
                  else
                    Board.Fetch_word
                      (Susceptibility.corrupt_word
                         ~width:(Susceptibility.gates_width gates)
                         ~offset:(Susceptibility.gates_offset gates) ~cycle
                         victim_word)));
          Board.Normal)

(* The attempt from the board's current state to its stop: one fetch
   and at most one window test per cycle, until the schedule is dead or
   closed with nothing planted. *)
let rec steps st board ~max_cycles ~nonce baseline =
  let now = Board.cycles board in
  if now >= max_cycles then `Timeout
  else begin
    if Board.edge_count board <> st.seen_edges then refresh_windows st board;
    match baseline with
    | Some b when st.n_planted = 0 && st.pristine && now >= st.dead_at ->
      (* dead schedule on a pristine board: the continuation is the
         recorded unglitched run — replay its end state *)
      st.cut <- b.b_cycles - now;
      Board.apply_delta board b.b_end;
      b.b_stop
    | Some _ | None when st.n_planted = 0 && now >= st.closed_at ->
      (* no window can open again and nothing is planted: no fault can
         apply, so the rest is a plain run, still emulated *)
      let stop = Board.run_plain_to board max_cycles in
      st.plain <- Board.cycles board - now;
      stop
    | Some _ | None -> (
      match Board.fetch board with
      | exception Machine.Memory.Fault (Unmapped a | Unaligned a) ->
        `Stopped (Machine.Exec.Bad_fetch a)
      | instr -> (
        let pc = Board.pc board in
        let applied =
          match take_planted st pc with
          | Board.Normal -> glitch st board ~nonce instr ~pc ~start:now
          | planted -> planted
        in
        (match applied with Board.Normal -> () | _ -> st.pristine <- false);
        match Board.step_fetched board applied instr with
        | Machine.Exec.Running -> steps st board ~max_cycles ~nonce baseline
        | Machine.Exec.Stopped s -> `Stopped s))
  end

(* The attempt from a board already rewound or reset to its start, with
   the schedule and its gates loaded into [st]. *)
let attempt st board ~max_cycles ~nonce baseline =
  (* cycles already on the board at start were served by the rewind
     to the snapshot, not emulated by this attempt *)
  let replayed = Board.cycles board in
  (match baseline with
  | Some b when b.b_max_cycles <> max_cycles ->
    invalid_arg "Glitcher.run: baseline built for a different max_cycles"
  | Some b when b.b_from_cycles <> replayed ->
    invalid_arg "Glitcher.run: baseline built from a different snapshot"
  | Some _ | None -> ());
  st.seen_edges <- -1;
  st.baseline_edges <- (match baseline with Some b -> b.b_edges | None -> -1);
  st.fired <- 0;
  st.glitched <- 0;
  st.pristine <- true;
  st.cut <- 0;
  st.plain <- 0;
  st.n_planted <- 0;
  let stop = steps st board ~max_cycles ~nonce baseline in
  { stop;
    cycles = Board.cycles board;
    fired = st.fired;
    glitched_cycles = st.glitched;
    replayed_cycles = replayed + st.cut;
    tail_cycles = st.plain }

let run ?(max_cycles = 3_000) ?(nonce = 0) ?from ?baseline board schedule =
  (match from with
  | Some snap -> Board.rewind board snap
  | None -> Board.reset board);
  let st = Domain.DLS.get state_key in
  load_schedule st schedule;
  attempt st board ~max_cycles ~nonce
    (match baseline with Some b -> b | None -> None)

let run_point ~max_cycles ~nonce ~from ~baseline board shape ~width ~offset =
  Board.rewind board from;
  let st = Domain.DLS.get state_key in
  load_shape st shape ~width ~offset;
  attempt st board ~max_cycles ~nonce baseline
