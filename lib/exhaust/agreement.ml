(* Static-vs-dynamic agreement: Analysis.Surface scores every function
   by the fraction of 1/2-bit perturbations it classifies Control,
   with no execution at all; the exhaustive campaign measures, for the
   same image, how often a perturbation observably diverts the actual
   run. This report puts the two per-function columns side by side so
   `glitchctl lint` can be judged against dynamic ground truth.

   The static column has a structural handicap in that comparison: it
   scores every reachable instruction of a function, while the dynamic
   column only ever samples instructions the baseline trace fetches.
   A function whose hot loop is benign but whose cold error path is
   branch-heavy gets a high static score and a near-zero dynamic one.
   When the caller supplies the baseline trace, [static_control_reached]
   restricts the static tally to fetched instructions, and the headline
   concordance is computed over that column instead. *)

type row = {
  fname : string;
  static_control : float;  (** Surface score: Control fraction of flips *)
  static_fault : float;  (** Surface: undecodable fraction of flips *)
  static_control_reached : float;
      (** Surface score restricted to instructions the baseline trace
          fetched; equals [static_control] when no trace was supplied *)
  reached_insns : int;
      (** instructions of this function on the baseline trace (equals
          the full instruction count when no trace was supplied) *)
  dyn_effect : float;
      (** campaign: fraction of executed points with any observable
          divergence (everything but No_effect and Invalid) *)
  dyn_fault : float;  (** campaign: Invalid fraction *)
  points : int;
}

type t = {
  rows : row list;
  weighted : bool;  (** a baseline trace restricted the static column *)
  concordance : float;
      (** fraction of function pairs ranked the same way by
          [static_control_reached] and [dyn_effect] (ties concordant) *)
  concordance_unweighted : float;
      (** same, over the unrestricted [static_control] column *)
  disagreements : string list;
}

let frac num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Rank concordance between a static column and the dynamic one: the
   fraction of function pairs ordered the same way (ties concordant). *)
let concordance_over rows static_of =
  let pairs = ref 0 and concordant = ref 0 in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if j > i then begin
            incr pairs;
            if
              (static_of a -. static_of b) *. (a.dyn_effect -. b.dyn_effect)
              >= 0.
            then incr concordant
          end)
        rows)
    rows;
  if !pairs = 0 then 1. else frac !concordant !pairs

let of_result ?baseline (surface : Analysis.Surface.t) (r : Campaign.result) =
  let static_of fname =
    List.find_opt
      (fun (f : Analysis.Surface.func_surface) -> f.fname = fname)
      surface.funcs
  in
  (* Owner of a baseline pc: the campaign row with the greatest entry
     address at or below it. Rows exist exactly for functions with
     injection points — i.e. functions the trace fetched — so every
     trace pc resolves to its true owner; an unreached function can
     never sit between a reached function's entry and a traced pc. *)
  let row_entries =
    List.map (fun (row : Campaign.row) -> (row.faddr, row.fname)) r.rows
  in
  let owner addr =
    List.fold_left
      (fun acc (faddr, fname) -> if faddr <= addr then Some fname else acc)
      None row_entries
  in
  let reached_set =
    Option.map
      (fun trace ->
        let set = Hashtbl.create 1024 in
        Array.iter (fun (pc, _word) -> Hashtbl.replace set pc ()) trace;
        set)
      baseline
  in
  let flips = Analysis.Surface.flips1 + Analysis.Surface.flips2 in
  let reached_stats fname (f : Analysis.Surface.func_surface) =
    match reached_set with
    | None -> (f.insns, f.score)
    | Some set ->
      let insns = ref 0 and control = ref 0 in
      List.iter
        (fun (p : Analysis.Surface.profile) ->
          if Hashtbl.mem set p.addr && owner p.addr = Some fname then begin
            incr insns;
            control := !control + p.control1 + p.control2
          end)
        surface.profiles;
      (!insns, frac !control (!insns * flips))
  in
  let rows =
    List.filter_map
      (fun (row : Campaign.row) ->
        match static_of row.fname with
        | None -> None
        | Some f ->
          let points = Array.fold_left ( + ) 0 row.counts in
          let no_effect = row.counts.(Campaign.verdict_index No_effect) in
          let invalid = row.counts.(Campaign.verdict_index Invalid) in
          let flips_total = f.insns * flips in
          let reached_insns, reached_score = reached_stats row.fname f in
          Some
            { fname = row.fname;
              static_control = f.score;
              static_fault = frac (f.fault1 + f.fault2) flips_total;
              static_control_reached = reached_score;
              reached_insns;
              dyn_effect = frac (points - no_effect - invalid) points;
              dyn_fault = frac invalid points;
              points })
      r.rows
  in
  let concordance = concordance_over rows (fun a -> a.static_control_reached) in
  let concordance_unweighted =
    concordance_over rows (fun a -> a.static_control)
  in
  let disagreements =
    List.filter_map
      (fun row ->
        if row.static_control_reached < 0.05 && row.dyn_effect > 0.25 then
          Some
            (Printf.sprintf
               "%s: static control %.1f%% but dynamic effect %.1f%%"
               row.fname
               (100. *. row.static_control_reached)
               (100. *. row.dyn_effect))
        else if
          row.static_control_reached > 0.5
          && row.dyn_effect = 0. && row.points > 0
        then
          Some
            (Printf.sprintf
               "%s: static control %.1f%% but no dynamic effect over %d points"
               row.fname
               (100. *. row.static_control_reached)
               row.points)
        else None)
      rows
  in
  { rows;
    weighted = reached_set <> None;
    concordance;
    concordance_unweighted;
    disagreements }

let pp ppf t =
  Fmt.pf ppf "static vs dynamic glitch surface (per function):@.";
  Fmt.pf ppf "  %-24s %9s %9s %9s %9s %9s %8s@." "function" "st.ctrl"
    "st.ctrl@R" "st.fault" "dyn.eff" "dyn.fault" "points";
  List.iter
    (fun row ->
      Fmt.pf ppf "  %-24s %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8.1f%% %8d@."
        row.fname
        (100. *. row.static_control)
        (100. *. row.static_control_reached)
        (100. *. row.static_fault)
        (100. *. row.dyn_effect)
        (100. *. row.dyn_fault)
        row.points)
    t.rows;
  if t.weighted then
    Fmt.pf ppf "  rank concordance: %.0f%% (unweighted %.0f%%)@."
      (100. *. t.concordance)
      (100. *. t.concordance_unweighted)
  else Fmt.pf ppf "  rank concordance: %.0f%%@." (100. *. t.concordance);
  List.iter (fun d -> Fmt.pf ppf "  disagreement: %s@." d) t.disagreements

let to_json t =
  let row_json row =
    Json.Obj
      [ ("fname", Json.String row.fname);
        ("static_control", Json.Float row.static_control);
        ("static_fault", Json.Float row.static_fault);
        ("static_control_reached", Json.Float row.static_control_reached);
        ("reached_insns", Json.Int row.reached_insns);
        ("dyn_effect", Json.Float row.dyn_effect);
        ("dyn_fault", Json.Float row.dyn_fault);
        ("points", Json.Int row.points) ]
  in
  Json.Obj
    [ ("rows", Json.List (List.map row_json t.rows));
      ("weighted", Json.Bool t.weighted);
      ("concordance", Json.Float t.concordance);
      ("concordance_unweighted", Json.Float t.concordance_unweighted);
      ( "disagreements",
        Json.List (List.map (fun d -> Json.String d) t.disagreements) ) ]
