type delay_scope =
  | Delay_everywhere
  | Delay_opt_in of string list
  | Delay_opt_out of string list

type reaction = Spin | Halt | Record

type defense =
  | Enums | Returns | Integrity | Branches | Loops | Delay
  | Sigcfi | Domains | Cfcss

type t = {
  defenses : defense list;
  delay_scope : delay_scope;
  sensitive : string list;
  reaction : reaction;
}

(* Delay first, so its generator and init code are protected by the
   passes that follow; the CFI passes last, so their check blocks are
   not re-instrumented by Branches/Loops; Sigcfi after Domains, so the
   running signature also covers the domain-check blocks. *)
let pipeline =
  [ Enums; Delay; Returns; Branches; Loops; Integrity; Cfcss; Domains; Sigcfi ]

let make ?(sensitive = []) defenses =
  { defenses = List.filter (fun d -> List.mem d defenses) pipeline;
    delay_scope = Delay_everywhere;
    sensitive;
    reaction = Spin }

let paper = [ Enums; Returns; Integrity; Branches; Loops; Delay ]
let paper_but_delay = List.filter (( <> ) Delay) paper
let none = make []
let all ?sensitive () = make ?sensitive paper
let all_but_delay ?sensitive () = make ?sensitive paper_but_delay

(* Report labels, in report order: the paper's passes, then the
   post-paper ones. *)
let labels =
  [ (Enums, "Enums"); (Returns, "Returns"); (Integrity, "Integrity");
    (Branches, "Branches"); (Loops, "Loops"); (Delay, "Delay");
    (Sigcfi, "Sigcfi"); (Domains, "Domains"); (Cfcss, "Cfcss") ]

let all_defenses = List.map fst labels
let label d = List.assoc d labels
let defense_to_string d = String.lowercase_ascii (label d)

let defense_of_string s =
  List.find_opt (fun d -> defense_to_string d = s) all_defenses

let sets =
  [ ("none", []); ("all", paper); ("all-but-delay", paper_but_delay);
    ("all\\delay", paper_but_delay); ("branches", [ Branches ]);
    ("loops", [ Loops ]); ("integrity", [ Integrity ]);
    ("returns", [ Returns; Enums ]); ("delay", [ Delay ]);
    ("sigcfi", [ Sigcfi ]); ("domains", [ Domains ]);
    ("cfi", [ Sigcfi; Domains ]);
    ("all-cfi", paper_but_delay @ [ Sigcfi; Domains ]); ("cfcss", [ Cfcss ]) ]

let set ?sensitive name =
  match List.assoc_opt name sets with
  | Some defenses -> make ?sensitive defenses
  | None -> invalid_arg ("Config.set: unknown defense set " ^ name)

(* The paper's eight named configurations keep their historical names;
   the post-paper passes show up as "+Sigcfi"/"+Domains"/"+Cfcss"
   suffixes so every existing report row and golden is untouched. *)
let name t =
  let on ds = List.filter (fun d -> List.mem d t.defenses) ds in
  let paper_part =
    match on paper with
    | ds when ds = paper -> [ "All" ]
    | ds when ds = paper_but_delay -> [ "All\\Delay" ]
    | ds -> List.map label ds
  in
  match paper_part @ List.map label (on [ Sigcfi; Domains; Cfcss ]) with
  | [] -> "None"
  | parts -> String.concat "+" parts
