(* Tests for the Figure 2 emulation framework: mask enumeration, fault
   models, snippet construction, and outcome classification. *)

open Glitch_emu

(* --- bitmask enumeration ------------------------------------------------- *)

let choose_table () =
  Alcotest.(check int) "16 choose 0" 1 (Bitmask.choose 16 0);
  Alcotest.(check int) "16 choose 1" 16 (Bitmask.choose 16 1);
  Alcotest.(check int) "16 choose 2" 120 (Bitmask.choose 16 2);
  Alcotest.(check int) "16 choose 8" 12870 (Bitmask.choose 16 8);
  Alcotest.(check int) "16 choose 16" 1 (Bitmask.choose 16 16);
  Alcotest.(check int) "out of range" 0 (Bitmask.choose 16 17)

let enumeration_matches_choose () =
  for k = 0 to 16 do
    let n = ref 0 in
    Bitmask.iter_of_weight ~width:16 ~weight:k (fun mask ->
        incr n;
        Alcotest.(check int) "weight" k (Bitmask.popcount mask));
    Alcotest.(check int)
      (Printf.sprintf "count at weight %d" k)
      (Bitmask.choose 16 k) !n
  done

let enumeration_distinct_and_complete () =
  let seen = Hashtbl.create 65536 in
  for weight = 0 to 16 do
    Bitmask.iter_of_weight ~width:16 ~weight (fun mask ->
        Alcotest.(check bool) "distinct" false (Hashtbl.mem seen mask);
        Hashtbl.add seen mask ())
  done;
  Alcotest.(check int) "covers 2^16" 65536 (Hashtbl.length seen)

(* The definition [Bitmask.popcount] must keep: one bit at a time. *)
let serial_popcount v =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0 v

let popcount_is_bit_serial () =
  for v = 0 to 0xFFFF do
    if Bitmask.popcount v <> serial_popcount v then
      Alcotest.failf "popcount 0x%04x = %d" v (Bitmask.popcount v)
  done;
  let rng = Random.State.make [| 32 |] in
  let sampled = List.init 100_000 (fun _ -> Random.State.bits32 rng |> Int32.to_int) in
  List.iter
    (fun v ->
      let v = v land 0xFFFFFFFF in
      if Bitmask.popcount v <> serial_popcount v then
        Alcotest.failf "popcount 0x%08x = %d" v (Bitmask.popcount v))
    ([ 0xFFFFFFFF; 0x80000000; 0x7FFFFFFF; 0xFFFF0000; 0x55555555 ] @ sampled);
  (* outside 0 .. 2^32 - 1 every bit still counts *)
  List.iter
    (fun v -> Alcotest.(check int) (Printf.sprintf "%x" v) (serial_popcount v) (Bitmask.popcount v))
    [ 0x100000000; 0x1FFFFFFFF; max_int; -1; min_int ]

let prop_subset_walk =
  QCheck.Test.make ~name:"deposit and next_subset walk the subsets in order"
    ~count:200 QCheck.(int_bound 0xFFFF)
    (fun bits ->
      let n = 1 lsl Bitmask.popcount bits in
      let walk = Array.init n (fun i -> Bitmask.deposit i ~into:bits) in
      let subsets = List.filter (fun s -> s land bits = s) (List.init 0x10000 Fun.id) in
      Array.to_list walk = subsets
      && Array.for_all
           (fun i -> Bitmask.next_subset walk.(i) ~within:bits = walk.((i + 1) mod n))
           (Array.init n Fun.id))

let prop_weight_enumeration =
  QCheck.Test.make ~name:"of_weight lists are sorted and exact" ~count:50
    QCheck.(pair (int_range 1 12) (int_range 0 12))
    (fun (width, weight) ->
      QCheck.assume (weight <= width);
      let masks = Bitmask.of_weight ~width ~weight in
      List.length masks = Bitmask.choose width weight
      && List.for_all (fun m -> Bitmask.popcount m = weight) masks
      && List.sort compare masks = masks)

(* --- fault models ---------------------------------------------------------- *)

let fault_semantics () =
  Alcotest.(check int) "and clears" 0xD000
    (Fault_model.apply And ~mask:0xF000 0xD003);
  Alcotest.(check int) "or sets" 0xD0FF (Fault_model.apply Or ~mask:0x00FF 0xD000);
  Alcotest.(check int) "xor toggles" 0x5000
    (Fault_model.apply Xor ~mask:0x8000 0xD000)

let fault_identity () =
  List.iter
    (fun flip ->
      let mask = Fault_model.identity_mask flip ~width:16 in
      Alcotest.(check int)
        (Fault_model.name flip)
        0xD003
        (Fault_model.apply flip ~mask 0xD003))
    Fault_model.all

let fault_unidirectional () =
  (* AND can only clear bits; OR can only set them. *)
  for mask = 0 to 0xFF do
    let w = 0xD003 in
    let anded = Fault_model.apply And ~mask:(0xFF00 lor mask) w in
    Alcotest.(check int) "and subset" anded (anded land w);
    let ored = Fault_model.apply Or ~mask w in
    Alcotest.(check int) "or superset" ored (ored lor w)
  done

let prop_preimages_bucket_masks =
  (* The preimage rule against its definition: bucketing all 2^16 masks
     by the word [apply] makes of the target and by [flipped_bits] gives
     each word of [changeable]'s image the histogram [preimages]
     predicts, and every other word none. *)
  QCheck.Test.make ~name:"preimage counts = per-mask bucketing" ~count:12
    QCheck.(int_bound 0xFFFF)
    (fun target ->
      List.for_all
        (fun flip ->
          let hist = Array.make_matrix 0x10000 17 0 in
          for mask = 0 to 0xFFFF do
            let word = Fault_model.apply flip ~mask target in
            let weight = Fault_model.flipped_bits flip ~width:16 ~mask in
            hist.(word).(weight) <- hist.(word).(weight) + 1
          done;
          let changeable = Fault_model.changeable flip ~width:16 target in
          Array.for_all Fun.id
            (Array.mapi
               (fun word row ->
                 let d = word lxor target in
                 let in_image = d land changeable = d in
                 Array.for_all Fun.id
                   (Array.mapi
                      (fun weight n ->
                        n
                        = if in_image then
                            Fault_model.preimages flip ~width:16 ~target
                              ~changed:(Bitmask.popcount d) ~weight
                          else 0)
                      row))
               hist))
        Fault_model.all)

let flipped_bits () =
  Alcotest.(check int) "and identity" 0
    (Fault_model.flipped_bits And ~width:16 ~mask:0xFFFF);
  Alcotest.(check int) "and 3 zeros" 3
    (Fault_model.flipped_bits And ~width:16 ~mask:0x1FFF);
  Alcotest.(check int) "or identity" 0
    (Fault_model.flipped_bits Or ~width:16 ~mask:0);
  Alcotest.(check int) "or 2 ones" 2
    (Fault_model.flipped_bits Or ~width:16 ~mask:0x0011)

(* --- test cases -------------------------------------------------------------- *)

let all_cases_assemble () =
  Alcotest.(check int) "14 conditional branches" 14
    (List.length Testcase.all_conditional_branches);
  List.iter
    (fun (case : Testcase.t) ->
      match List.nth case.instrs case.target_index with
      | Thumb.Instr.B_cond _ -> ()
      | i ->
        Alcotest.fail
          (Printf.sprintf "%s target is %s, not a conditional branch" case.name
             (Thumb.Instr.to_string i)))
    Testcase.all_conditional_branches

let non_branch_cases_work () =
  List.iter
    (fun (case : Testcase.t) ->
      let config = Campaign.default_config Fault_model.And in
      (* identity: effect present, no marker *)
      (match Campaign.run_one config case ~mask:0xFFFF with
      | Campaign.No_effect -> ()
      | cat ->
        Alcotest.fail
          (Printf.sprintf "%s unglitched: %s" case.name
             (Campaign.category_name cat)));
      (* zero the word: instruction becomes a nop, effect missing *)
      match Campaign.run_one config case ~mask:0 with
      | Campaign.Success -> ()
      | cat ->
        Alcotest.fail
          (Printf.sprintf "%s nopped: %s" case.name (Campaign.category_name cat)))
    Testcase.non_branch_cases

let unglitched_runs_take_branch () =
  (* With the identity mask every snippet must take its branch: normal
     marker set, skip marker clear. *)
  List.iter
    (fun (case : Testcase.t) ->
      let config = Campaign.default_config Fault_model.And in
      let mask = Fault_model.identity_mask Fault_model.And ~width:16 in
      match Campaign.run_one config case ~mask with
      | Campaign.No_effect -> ()
      | cat ->
        Alcotest.fail
          (Printf.sprintf "%s unglitched: %s" case.name
             (Campaign.category_name cat)))
    Testcase.all_conditional_branches

(* --- classification ----------------------------------------------------------- *)

let beq_case = Testcase.conditional_branch Thumb.Instr.EQ

let nop_corruption_is_success () =
  (* AND mask 0 turns the branch into MOVS r0, r0 — the paper's
     canonical "skipped" instruction. *)
  let config = Campaign.default_config Fault_model.And in
  match Campaign.run_one config beq_case ~mask:0 with
  | Campaign.Success -> ()
  | cat -> Alcotest.fail (Campaign.category_name cat)

let zero_invalid_changes_classification () =
  let config =
    { (Campaign.default_config Fault_model.And) with zero_is_invalid = true }
  in
  match Campaign.run_one config beq_case ~mask:0 with
  | Campaign.Invalid_instruction -> ()
  | cat -> Alcotest.fail (Campaign.category_name cat)

let condition_inversion_is_success () =
  (* OR-ing bit 8 turns BEQ (cond 0) into BNE (cond 1): with Z set the
     branch is no longer taken, so the dead instruction runs. *)
  let config = Campaign.default_config Fault_model.Or in
  match Campaign.run_one config beq_case ~mask:0x0100 with
  | Campaign.Success -> ()
  | cat -> Alcotest.fail (Campaign.category_name cat)

let far_branch_is_bad_fetch () =
  (* OR-ing the sign bit of the offset branches far backwards, out of
     the tiny flash mapping. *)
  let config = Campaign.default_config Fault_model.Or in
  match Campaign.run_one config beq_case ~mask:0x0080 with
  | Campaign.Bad_fetch -> ()
  | cat -> Alcotest.fail (Campaign.category_name cat)

let prop_classification_deterministic =
  QCheck.Test.make ~name:"run_one is deterministic" ~count:100
    QCheck.(int_bound 0xFFFF)
    (fun mask ->
      let config = Campaign.default_config Fault_model.Xor in
      Campaign.run_one config beq_case ~mask = Campaign.run_one config beq_case ~mask)

(* --- the paper's headline result ---------------------------------------- *)

let and_beats_or_on_beq () =
  let run flip =
    Campaign.run_case (Campaign.default_config flip) beq_case
  in
  let and_rate = Campaign.category_percent (run Fault_model.And) Campaign.Success in
  let or_rate = Campaign.category_percent (run Fault_model.Or) Campaign.Success in
  Alcotest.(check bool)
    (Printf.sprintf "AND %.1f%% > OR %.1f%%" and_rate or_rate)
    true (and_rate > or_rate);
  Alcotest.(check bool) "AND skips over half the time" true (and_rate > 50.);
  (* weight-0 entries are the unmodified instruction: never a success *)
  let r = run Fault_model.And in
  Alcotest.(check int) "unmodified is never a success" 0
    r.by_weight.(0).(Campaign.category_index Campaign.Success)

let counts_are_conserved () =
  let r = Campaign.run_case (Campaign.default_config Fault_model.And) beq_case in
  let sum =
    Array.fold_left
      (fun acc row -> acc + Array.fold_left ( + ) 0 row)
      0 r.by_weight
  in
  Alcotest.(check int) "all 65536 masks classified" 65536 sum

(* --- golden Figure 2 numbers --------------------------------------------- *)

(* Pinned category totals for BEQ under each Figure 2 configuration,
   in category order Success; Bad_read; Bad_fetch; Invalid_instruction;
   Failed; No_effect (totals exclude the weight-0 identity mask, so each
   row sums to 65535). Any change to the decoder, the fault models or
   the campaign loop that shifts these numbers must be deliberate. *)
let golden_configs =
  [ ("and", Campaign.default_config Fault_model.And,
     [| 40960; 16384; 0; 0; 0; 8191 |]);
    ("or", Campaign.default_config Fault_model.Or,
     [| 30776; 0; 23328; 2048; 9272; 111 |]);
    ("xor", Campaign.default_config Fault_model.Xor,
     [| 29131; 24768; 4758; 5120; 1473; 285 |]);
    ("and zero-invalid",
     { (Campaign.default_config Fault_model.And) with zero_is_invalid = true },
     [| 32768; 16384; 0; 8192; 0; 8191 |]) ]

let golden_category_totals () =
  List.iter
    (fun (name, config, expect) ->
      let r = Campaign.run_case config beq_case in
      Alcotest.(check (array int)) name expect r.totals)
    golden_configs

let golden_success_by_weight () =
  (* The success column of Figure 2 for BEQ under all four
     configurations: one count per flipped-bit weight 0..16. *)
  let expect =
    [ ("and",
       [| 0; 2; 28; 183; 741; 2080; 4290; 6721; 8151; 7722; 5720; 3289; 1443;
          468; 106; 15; 1 |]);
      ("or",
       [| 0; 4; 50; 290; 1035; 2541; 4543; 6105; 6271; 4954; 3001; 1379; 471;
          114; 17; 1; 0 |]);
      ("xor",
       [| 0; 6; 51; 221; 656; 1501; 2792; 4283; 5377; 5381; 4329; 2703; 1274;
          438; 103; 15; 1 |]);
      ("and zero-invalid",
       [| 0; 2; 28; 182; 728; 2002; 4004; 6006; 6864; 6006; 4004; 2002; 728;
          182; 28; 2; 0 |]) ]
  in
  List.iter2
    (fun (name, config, _) (ename, expected) ->
      assert (name = ename);
      let r = Campaign.run_case config beq_case in
      let succ =
        Array.map
          (fun row -> row.(Campaign.category_index Campaign.Success))
          r.by_weight
      in
      Alcotest.(check (array int)) (name ^ " success by weight") expected succ)
    golden_configs expect

(* Category totals summed over all 14 conditional-branch cases, one row
   per Figure 2 flip model. Together with the per-case BEQ rows above,
   this locks the whole Figure 2 surface: any change to the decoder,
   executor, fault models, rig reset, or memo that shifts a single
   classification anywhere breaks one of these arrays. Values were
   produced by the pre-memoization reference implementation. *)
let golden_aggregate_branch_totals () =
  let expect =
    [ ("and", [| 623616; 229376; 0; 1024; 0; 63474 |]);
      ("or", [| 232280; 0; 425824; 38912; 218904; 1570 |]);
      ("xor", [| 407837; 346760; 66603; 71674; 20615; 4001 |]);
      ("and zero-invalid", [| 583680; 229376; 0; 40960; 0; 63474 |]) ]
  in
  List.iter2
    (fun (name, config, _) (ename, expected) ->
      assert (name = ename);
      let agg = Array.make (List.length Campaign.categories) 0 in
      List.iter
        (fun case ->
          let r = Campaign.run_case config case in
          Array.iteri (fun i n -> agg.(i) <- agg.(i) + n) r.totals)
        Testcase.all_conditional_branches;
      Alcotest.(check (array int)) (name ^ " aggregate totals") expected agg)
    golden_configs expect

let golden_non_branch_totals () =
  (* The supplement's non-branch cases under the two unidirectional
     models, pinned per case. *)
  let expect =
    [ (Fault_model.And, "STRB", [| 46592; 18432; 0; 0; 0; 511 |]);
      (Fault_model.And, "LDRB", [| 42496; 18432; 0; 0; 0; 4607 |]);
      (Fault_model.And, "ADDS", [| 49664; 0; 0; 0; 0; 15871 |]);
      (Fault_model.Or, "STRB", [| 23296; 25600; 16384; 0; 0; 255 |]);
      (Fault_model.Or, "LDRB", [| 7936; 24576; 32768; 0; 0; 255 |]);
      (Fault_model.Or, "ADDS", [| 24576; 20480; 8192; 6144; 0; 6143 |]) ]
  in
  List.iter
    (fun (flip, cname, expected) ->
      let case =
        List.find
          (fun (c : Testcase.t) -> c.name = cname)
          Testcase.non_branch_cases
      in
      let r = Campaign.run_case (Campaign.default_config flip) case in
      Alcotest.(check (array int))
        (Fault_model.name flip ^ " " ^ cname)
        expected r.totals)
    expect

(* --- sequential = parallel ----------------------------------------------- *)

let check_same_result name (seq : Campaign.result) (par : Campaign.result) =
  Alcotest.(check (array (array int)))
    (name ^ " by_weight") seq.by_weight par.by_weight;
  Alcotest.(check (array int)) (name ^ " totals") seq.totals par.totals

let parallel_matches_sequential () =
  (* Every Figure 2 configuration on BEQ, plus two more branch cases on
     the AND model: running the sweep on 2 or 4 domains must reproduce
     the single-domain tallies bit for bit. *)
  let workloads =
    List.map (fun (n, c, _) -> (n, c, beq_case)) golden_configs
    @ [ ("and", Campaign.default_config Fault_model.And,
         Testcase.conditional_branch Thumb.Instr.NE);
        ("and", Campaign.default_config Fault_model.And,
         Testcase.conditional_branch Thumb.Instr.LT) ]
  in
  Runtime.Pool.with_pool ~jobs:2 (fun pool2 ->
      Runtime.Pool.with_pool ~jobs:4 (fun pool4 ->
          List.iter
            (fun (cname, config, (case : Testcase.t)) ->
              let name = cname ^ "/" ^ case.name in
              let seq = Campaign.run_case config case in
              check_same_result (name ^ " jobs=2") seq
                (Campaign.run_case ~pool:pool2 config case);
              check_same_result (name ^ " jobs=4") seq
                (Campaign.run_case ~pool:pool4 config case))
            workloads))

let one_job_pool_matches_no_pool () =
  (* No pool and a one-job pool are the same single worker in the
     caller: equal tables and the same executed/memoized split — each
     distinct word executed once. *)
  let config = Campaign.default_config Fault_model.And in
  let plain = Campaign.run_case config beq_case in
  Runtime.Pool.with_pool ~jobs:1 (fun pool ->
      let one = Campaign.run_case ~pool config beq_case in
      check_same_result "jobs=1 pool" plain one;
      Alcotest.(check int) "same executed" plain.stats.Campaign.executed
        one.stats.Campaign.executed;
      Alcotest.(check int) "same memoized" plain.stats.Campaign.memoized
        one.stats.Campaign.memoized);
  Alcotest.(check int) "each distinct word executed once"
    (1 lsl Bitmask.popcount (Testcase.target_word beq_case))
    plain.stats.Campaign.executed

(* --- campaign properties -------------------------------------------------- *)

(* The differential harness: [Campaign.run_one] is the original
   reference kernel (fresh machine, clear + reload reset, no memo),
   while [Campaign.sweep] is the memoized fast kernel on a reused rig
   with blit-based resets. Sampling random (case, model, mask) triples
   pins the two code paths against each other. *)

let diff_cases =
  [| beq_case;
     Testcase.conditional_branch Thumb.Instr.NE;
     Testcase.conditional_branch Thumb.Instr.LT;
     Testcase.store_case;
     Testcase.alu_case |]

let diff_sweeps =
  (* (config, case) sweeps built lazily, once per pair *)
  Array.map
    (fun case ->
      Array.of_list
        (List.map
           (fun (_, config, _) -> (config, lazy (Campaign.sweep config case)))
           golden_configs))
    diff_cases

let prop_fast_kernel_matches_reference =
  QCheck.Test.make
    ~name:"memoized sweep kernel agrees with the reference run_one" ~count:200
    QCheck.(
      triple
        (int_bound (Array.length diff_cases - 1))
        (int_bound (List.length golden_configs - 1))
        (int_bound 0xFFFF))
    (fun (ci, ki, mask) ->
      let case = diff_cases.(ci) in
      let config, sweep = diff_sweeps.(ci).(ki) in
      Campaign.run_one config case ~mask
      = (Lazy.force sweep).Campaign.categories.(mask))

let prop_memo_agrees_with_categories =
  (* The per-word memo must agree with the per-mask categories: the
     entry for a mask's perturbed word is exactly that mask's
     classification. *)
  QCheck.Test.make ~name:"memo table agrees with categories_by_mask" ~count:300
    QCheck.(
      triple
        (int_bound (Array.length diff_cases - 1))
        (int_bound (List.length golden_configs - 1))
        (int_bound 0xFFFF))
    (fun (ci, ki, mask) ->
      let case = diff_cases.(ci) in
      let config, sweep = diff_sweeps.(ci).(ki) in
      let s = Lazy.force sweep in
      let word = Fault_model.apply config.flip ~mask (Testcase.target_word case) in
      s.Campaign.by_word.(word) = Some s.Campaign.categories.(mask))

let sweep_stats_account_for_every_mask () =
  (* executed + memoized = 65,536 for every sequential sweep; executed
     equals the number of distinct perturbed words (memo occupancy);
     XOR is a bijection so it can never hit the memo. *)
  List.iter
    (fun (name, config, _) ->
      let s = Campaign.sweep config beq_case in
      let stats = s.Campaign.sweep_stats in
      Alcotest.(check int)
        (name ^ " executed+memoized")
        65536
        (stats.Campaign.executed + stats.Campaign.memoized);
      let occupied =
        Array.fold_left
          (fun acc c -> if c = None then acc else acc + 1)
          0 s.Campaign.by_word
      in
      Alcotest.(check int) (name ^ " executed = distinct words") occupied
        stats.Campaign.executed;
      let r = Campaign.run_case config beq_case in
      Alcotest.(check int)
        (name ^ " run_case stats account for every mask")
        65536
        (r.stats.Campaign.executed + r.stats.Campaign.memoized))
    golden_configs;
  let xor = Campaign.sweep (Campaign.default_config Fault_model.Xor) beq_case in
  Alcotest.(check int) "xor never hits the memo" 0
    xor.Campaign.sweep_stats.Campaign.memoized

let memo_saves_most_executions () =
  (* The Figure 2(a) claim behind the optimisation: under AND, a sweep
     executes only the distinct subsets of the target's set bits —
     2^popcount(target) words — and memoizes the other ~98%. *)
  let s = Campaign.sweep (Campaign.default_config Fault_model.And) beq_case in
  let stats = s.Campaign.sweep_stats in
  let expected = 1 lsl Bitmask.popcount (Testcase.target_word beq_case) in
  Alcotest.(check int) "AND executes 2^popcount(target) words" expected
    stats.Campaign.executed;
  Alcotest.(check bool) "memo serves the large majority" true
    (stats.Campaign.memoized > 60000)

(* --- shared store --------------------------------------------------------- *)

let shared_store_warm_run_executes_nothing () =
  (* A store kept warm across run_case calls of the same (config, case)
     pair serves every word: the second run classifies all 65,536 masks
     without executing a single instruction, sequentially and on a
     pool. *)
  let config = Campaign.default_config Fault_model.And in
  let store = Campaign.make_store () in
  let cold = Campaign.run_case ~store config beq_case in
  Alcotest.(check bool) "cold run executes" true
    (cold.stats.Campaign.executed > 0);
  let warm = Campaign.run_case ~store config beq_case in
  check_same_result "warm = cold" cold warm;
  Alcotest.(check int) "warm run executes nothing" 0
    warm.stats.Campaign.executed;
  Alcotest.(check int) "warm run serves every mask" 65536
    warm.stats.Campaign.memoized;
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      let par = Campaign.run_case ~pool ~store config beq_case in
      check_same_result "warm parallel = cold" cold par;
      Alcotest.(check int) "warm parallel executes nothing" 0
        par.stats.Campaign.executed)

(* A run without a store keeps nothing between calls: back-to-back
   runs, even of different cases, start cold and match runs on fresh
   stores, counters included. *)
let no_store_is_fresh_store () =
  let config = Campaign.default_config Fault_model.And in
  let bne_case = Testcase.conditional_branch Thumb.Instr.NE in
  List.iter
    (fun case ->
      let fresh = Campaign.run_case ~store:(Campaign.make_store ()) config case in
      let plain = Campaign.run_case config case in
      check_same_result "no store = fresh" fresh plain;
      Alcotest.(check int) "same executed count" fresh.stats.Campaign.executed
        plain.stats.Campaign.executed)
    [ beq_case; beq_case; bne_case ]

let parallel_stats_conserve_masks () =
  (* Each distinct word is run by exactly one worker, so a parallel
     sweep executes exactly the distinct words and accounts for every
     mask, whatever the schedule. *)
  let config = Campaign.default_config Fault_model.And in
  let distinct = 1 lsl Bitmask.popcount (Testcase.target_word beq_case) in
  Runtime.Pool.with_pool ~jobs:4 (fun pool ->
      let r = Campaign.run_case ~pool config beq_case in
      Alcotest.(check int) "executed = distinct words" distinct
        r.stats.Campaign.executed;
      Alcotest.(check int) "memoized = the other masks" (65536 - distinct)
        r.stats.Campaign.memoized)

(* Every sweep of Figure 2 as perfbench runs it: the four panels over
   the fourteen conditional branches, then AND and OR over each
   non-branch case. *)
let fig2_sweeps =
  let config = Campaign.default_config in
  List.concat_map
    (fun config -> List.map (fun case -> (config, case)) Testcase.all_conditional_branches)
    [ config And; config Or; { (config And) with zero_is_invalid = true }; config Xor ]
  @ List.concat_map
      (fun config -> List.map (fun case -> (config, case)) Testcase.non_branch_cases)
      [ config And; config Or ]

let kernel_matches_mask_oracle () =
  (* The per-word kernel, alone and on two workers, against the
     per-mask loop it replaced: the same tables and the same split. *)
  Alcotest.(check int) "62 sweeps" 62 (List.length fig2_sweeps);
  Runtime.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun ((config : Campaign.config), (case : Testcase.t)) ->
          let name = Fault_model.name config.flip ^ "/" ^ case.name in
          let by_weight, totals, stats = Fig2_mask_oracle.run_case config case in
          List.iter
            (fun (leg, (r : Campaign.result)) ->
              let name = name ^ " " ^ leg in
              Alcotest.(check (array (array int))) (name ^ " by_weight") by_weight
                r.by_weight;
              Alcotest.(check (array int)) (name ^ " totals") totals r.totals;
              Alcotest.(check int) (name ^ " executed") stats.Campaign.executed
                r.stats.executed;
              Alcotest.(check int) (name ^ " memoized") stats.Campaign.memoized
                r.stats.memoized)
            [ ("jobs=1", Campaign.run_case config case);
              ("jobs=2", Campaign.run_case ~pool config case) ])
        fig2_sweeps)

let prop_shared_store_matches_private_oracle =
  (* The sequential run (one fresh private store, the pre-sharing
     semantics) is the oracle: a parallel run over the shared store and
     a warm-store rerun must reproduce its tables bit for bit. *)
  QCheck.Test.make
    ~name:"shared-store sweeps match the private-store oracle" ~count:6
    QCheck.(
      pair
        (int_bound (Array.length diff_cases - 1))
        (int_bound (List.length golden_configs - 1)))
    (fun (ci, ki) ->
      let case = diff_cases.(ci) in
      let _, config, _ = List.nth golden_configs ki in
      let oracle = Campaign.run_case config case in
      let store = Campaign.make_store () in
      Runtime.Pool.with_pool ~jobs:2 (fun pool ->
          let shared = Campaign.run_case ~pool ~store config case in
          let warm = Campaign.run_case ~store config case in
          oracle.Campaign.by_weight = shared.Campaign.by_weight
          && oracle.Campaign.totals = shared.Campaign.totals
          && oracle.Campaign.by_weight = warm.Campaign.by_weight
          && warm.Campaign.stats.Campaign.executed = 0))

let prop_flipped_bits_match_apply =
  (* flipped_bits reports the number of bit positions a mask can change:
     under XOR apply flips exactly those bits of any word; under AND/OR
     it flips a subset of them (only already-set / already-clear bits
     actually change). *)
  QCheck.Test.make ~name:"flipped_bits is consistent with apply" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (mask, word) ->
      List.for_all
        (fun flip ->
          let changed = word lxor Fault_model.apply flip ~mask word in
          let reported = Fault_model.flipped_bits flip ~width:16 ~mask in
          match flip with
          | Fault_model.Xor ->
            changed = mask && Bitmask.popcount changed = reported
          | Fault_model.And ->
            (* AND clears bits where the mask has zeros *)
            changed land mask = 0
            && changed land word = changed
            && Bitmask.popcount changed <= reported
          | Fault_model.Or ->
            (* OR sets bits where the mask has ones *)
            changed lor mask = mask
            && changed land word = 0
            && Bitmask.popcount changed <= reported)
        Fault_model.all)

let prop_mask_of_bits_flips_its_bits =
  (* The one bit-set -> mask rule: a mask built from a bit-set can flip
     exactly popcount(bit-set) positions under every model, and the
     empty bit-set is the identity mask. *)
  QCheck.Test.make ~name:"mask_of_bits flips exactly its bits" ~count:500
    QCheck.(int_bound 0xFFFFFFFF)
    (fun bits ->
      List.for_all
        (fun (m, width) ->
          let bits = bits land ((1 lsl width) - 1) in
          Fault_model.flipped_bits m ~width
            ~mask:(Fault_model.mask_of_bits m ~width bits)
          = Bitmask.popcount bits
          && Fault_model.mask_of_bits m ~width 0
             = Fault_model.identity_mask m ~width)
        (List.concat_map (fun m -> [ (m, 16); (m, 32) ]) Fault_model.all))

let () =
  let props =
    List.map Qseed.to_alcotest
      [ prop_weight_enumeration; prop_subset_walk; prop_classification_deterministic ]
  in
  let campaign_props =
    List.map Qseed.to_alcotest
      [ prop_fast_kernel_matches_reference; prop_memo_agrees_with_categories;
        prop_shared_store_matches_private_oracle; prop_flipped_bits_match_apply;
        prop_mask_of_bits_flips_its_bits; prop_preimages_bucket_masks ]
  in
  Alcotest.run "glitch_emu"
    [ ("bitmask",
       [ Alcotest.test_case "binomial table" `Quick choose_table;
         Alcotest.test_case "enumeration counts" `Quick enumeration_matches_choose;
         Alcotest.test_case "distinct and complete" `Quick
           enumeration_distinct_and_complete;
         Alcotest.test_case "popcount = bit-serial" `Quick popcount_is_bit_serial ]);
      ("bitmask-properties", props);
      ("fault-model",
       [ Alcotest.test_case "apply semantics" `Quick fault_semantics;
         Alcotest.test_case "identity masks" `Quick fault_identity;
         Alcotest.test_case "unidirectionality" `Quick fault_unidirectional;
         Alcotest.test_case "flipped-bit counting" `Quick flipped_bits ]);
      ("testcases",
       [ Alcotest.test_case "all 14 assemble" `Quick all_cases_assemble;
         Alcotest.test_case "branches taken unglitched" `Quick
           unglitched_runs_take_branch;
         Alcotest.test_case "non-branch cases" `Quick non_branch_cases_work ]);
      ("classification",
       [ Alcotest.test_case "nop corruption succeeds" `Quick
           nop_corruption_is_success;
         Alcotest.test_case "0x0000 invalid mode" `Quick
           zero_invalid_changes_classification;
         Alcotest.test_case "condition inversion succeeds" `Quick
           condition_inversion_is_success;
         Alcotest.test_case "far branch bad-fetches" `Quick far_branch_is_bad_fetch ]);
      ("figure2",
       [ Alcotest.test_case "AND beats OR (paper headline)" `Slow and_beats_or_on_beq;
         Alcotest.test_case "mask accounting" `Slow counts_are_conserved ]);
      ("figure2-golden",
       [ Alcotest.test_case "category totals" `Slow golden_category_totals;
         Alcotest.test_case "success by weight, all models" `Slow
           golden_success_by_weight;
         Alcotest.test_case "aggregate branch totals, all models" `Slow
           golden_aggregate_branch_totals;
         Alcotest.test_case "non-branch totals" `Slow golden_non_branch_totals ]);
      ("parallel",
       [ Alcotest.test_case "sequential = parallel" `Slow
           parallel_matches_sequential;
         Alcotest.test_case "one-job pool = no pool" `Quick
           one_job_pool_matches_no_pool ]);
      ("memo",
       [ Alcotest.test_case "stats account for every mask" `Slow
           sweep_stats_account_for_every_mask;
         Alcotest.test_case "AND memo saves most executions" `Slow
           memo_saves_most_executions;
         Alcotest.test_case "warm shared store executes nothing" `Slow
           shared_store_warm_run_executes_nothing;
         Alcotest.test_case "no store = fresh store" `Slow
           no_store_is_fresh_store;
         Alcotest.test_case "parallel stats conserve masks" `Slow
           parallel_stats_conserve_masks;
         Alcotest.test_case "sweep kernel = per-mask oracle" `Slow
           kernel_matches_mask_oracle ]);
      ("campaign-properties", campaign_props) ]
