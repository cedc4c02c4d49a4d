type reports = {
  enum_report : Enum_rewriter.report option;
  returns_report : Returns.report option;
  integrity_report : Integrity.report option;
  branches_report : Branches.report option;
  loops_report : Loops.report option;
  delay_report : Delay.report option;
  cfcss_report : Cfcss.report option;
  domains_report : Domains.report option;
  sigcfi_report : Sigcfi.report option;
  verify_warnings : (string * Ir.Verify.violation) list;
      (* pass-tagged Ir.Verify.lint findings from the after-every-pass
         verification runs *)
}

let no_reports =
  { enum_report = None; returns_report = None; integrity_report = None;
    branches_report = None; loops_report = None; delay_report = None;
    cfcss_report = None; domains_report = None; sigcfi_report = None;
    verify_warnings = [] }

type compiled = {
  config : Config.t;
  modul : Ir.modul;
  image : Lower.Layout.image;
  reports : reports;
}

let firmware_externs =
  [ ("__trigger_high", 0); ("__trigger_low", 0); ("__halt", 0) ]

(* Runs one IR pass of [config] and files its report into [r]. *)
let run_pass (config : Config.t) m r : Config.defense -> reports = function
  | Enums -> r (* source-to-source: already applied before lowering *)
  | Delay ->
    { r with delay_report = Some (Delay.run ~scope:config.delay_scope m) }
  | Returns -> { r with returns_report = Some (Returns.run m) }
  | Branches ->
    { r with branches_report = Some (Branches.run config.reaction m) }
  | Loops -> { r with loops_report = Some (Loops.run config.reaction m) }
  | Integrity ->
    { r with
      integrity_report =
        Some (Integrity.run ~sensitive:config.sensitive config.reaction m) }
  | Cfcss -> { r with cfcss_report = Some (Cfcss.run config.reaction m) }
  | Domains -> { r with domains_report = Some (Domains.run config.reaction m) }
  | Sigcfi -> { r with sigcfi_report = Some (Sigcfi.run config.reaction m) }

let compile_modul (config : Config.t) source =
  Pass.reset_warnings ();
  let ast = Minic.Parser.program source in
  let sema = Minic.Sema.check ~externs:firmware_externs ast in
  (* source-to-source stage *)
  let ast, enum_report =
    if List.mem Config.Enums config.defenses then begin
      let ast, report = Enum_rewriter.rewrite sema in
      (ast, Some report)
    end
    else (ast, None)
  in
  let sema = Minic.Sema.check ~externs:firmware_externs ast in
  let m = Lower.Ast_lower.modul ~externs:firmware_externs sema in
  (* mark sensitive globals (from configuration, like the paper's
     developer-provided list) *)
  List.iter
    (fun name ->
      match Ir.find_global m name with
      | Some g -> g.sensitive <- true
      | None -> ())
    config.sensitive;
  (* Every pass but Enums, Returns and Delay reports to the shared
     detector. It goes in before any pass runs, so its place in the
     image does not depend on which pass needs it first. *)
  if List.exists (fun d -> not (List.mem d Config.[ Enums; Returns; Delay ]))
       config.defenses
  then Detect.ensure config.reaction m;
  let reports =
    List.fold_left (run_pass config m) { no_reports with enum_report }
      config.defenses
  in
  Ir.Verify.check_exn m;
  Pass.collect_warnings "final" m;
  (m, { reports with verify_warnings = Pass.drain_warnings () })

let compile config source =
  let modul, reports = compile_modul config source in
  let image = Lower.Layout.link modul in
  { config; modul; image; reports }
