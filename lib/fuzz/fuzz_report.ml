open! Import

let pp fmt (r : Engine.report) =
  let o = r.Engine.options in
  Format.fprintf fmt
    "%s fuzzing campaign on %s: %d/%d test cases executed (seed %s, batch %d)@."
    (if o.Engine.energy > 0 then
       Printf.sprintf "Coverage-guided (energy %d%%)" o.Engine.energy
     else "Blind random")
    r.Engine.config.Config.name r.Engine.executed o.Engine.budget
    (Word.to_hex o.Engine.seed) o.Engine.batch;
  Format.fprintf fmt "  coverage: %d edges (%d bucket bits)@."
    r.Engine.edges_covered r.Engine.bits_covered;
  Format.fprintf fmt "  corpus: %d interesting entries, distils to %d@."
    r.Engine.corpus_entries r.Engine.distilled;
  Format.fprintf fmt "  discoveries:@.";
  List.iter
    (fun (d : Engine.discovery) ->
      Format.fprintf fmt "    %-3s at test case %4d  (%s)@."
        (Case.to_string d.Engine.case) d.Engine.at d.Engine.testcase)
    r.Engine.discoveries;
  (match r.Engine.cases_to_full_table3 with
  | Some n ->
    Format.fprintf fmt "  full Table 3 coverage reached after %d test cases@." n
  | None ->
    Format.fprintf fmt
      "  full Table 3 coverage NOT reached within the budget (%d/%d cases)@."
        (List.length r.Engine.found)
        (List.length
           (List.filter
              (fun c -> Case.expected c r.Engine.config.Config.kind)
              Case.all)));
  Format.fprintf fmt "  residue warnings: %d; simulated cycles: %d@."
    r.Engine.residue_warnings r.Engine.total_cycles

(* {2 JSON} *)

let discovery_value (d : Engine.discovery) =
  Obs.Json.(
    Obj
      [
        ("case", Str (Case.to_string d.Engine.case));
        ("at", Int d.Engine.at);
        ("testcase", Str d.Engine.testcase);
      ])

let to_json_string (r : Engine.report) =
  let o = r.Engine.options in
  let open Obs.Json in
  let int n = Inline (Int n) and str s = Inline (Str s) in
  document
    [
      ( "core",
        str
          (String.lowercase_ascii
             (Config.core_kind_to_string r.Engine.config.Config.kind)) );
      ("mode", str (if o.Engine.energy > 0 then "guided" else "random"));
      ("seed", str (Word.to_hex o.Engine.seed));
      ("budget", int o.Engine.budget);
      ("batch", int o.Engine.batch);
      ("energy", int o.Engine.energy);
      ("executed", int r.Engine.executed);
      ("edges_covered", int r.Engine.edges_covered);
      ("bits_covered", int r.Engine.bits_covered);
      ("corpus_entries", int r.Engine.corpus_entries);
      ("distilled", int r.Engine.distilled);
      ("found", Items ((fun c -> Str (Case.to_string c)), r.Engine.found));
      ("discoveries", Items (discovery_value, r.Engine.discoveries));
      ( "cases_to_full_table3",
        Inline
          (match r.Engine.cases_to_full_table3 with
          | Some n -> Int n
          | None -> Null) );
      ("residue_warnings", int r.Engine.residue_warnings);
      ("total_cycles", int r.Engine.total_cycles);
      ("provenance", Items (Provenance.to_value, r.Engine.provenance));
    ]

let save_json ~path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_json_string r))
