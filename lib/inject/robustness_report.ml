open! Import

let pct part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let pp_counts fmt (c : Inject_campaign.counts) =
  Format.fprintf fmt "%d stable / %d spurious / %d masked" c.Inject_campaign.stable
    c.Inject_campaign.spurious c.Inject_campaign.masked

let pp fmt (r : Inject_campaign.result) =
  let plans = List.length r.Inject_campaign.plan_results in
  Format.fprintf fmt
    "Checker-robustness campaign on %s: %d fault plans x %d test cases (seed %s)@."
    r.Inject_campaign.config.Config.name plans r.Inject_campaign.testcases
    (Word.to_hex r.Inject_campaign.seed);
  Format.fprintf fmt "  clean baseline: %s; matches paper Table 3: %b@."
    (String.concat " "
       (List.map Case.to_string r.Inject_campaign.baseline_found))
    r.Inject_campaign.baseline_matches_paper;
  Format.fprintf fmt "  plan outcomes: %a@." pp_counts r.Inject_campaign.plan_totals;
  Format.fprintf fmt "  unit outcomes: %a@." pp_counts r.Inject_campaign.unit_totals;
  Format.fprintf fmt "  by fault model:@.";
  List.iter
    (fun (m, c) ->
      Format.fprintf fmt "    %-32s %a@." (Fault_model.to_string m) pp_counts c)
    r.Inject_campaign.by_model;
  Format.fprintf fmt "  by structure:@.";
  List.iter
    (fun (s, c) ->
      Format.fprintf fmt "    %-32s %a@." (Structure.to_string s) pp_counts c)
    r.Inject_campaign.by_structure;
  let interesting =
    List.filter
      (fun (p : Inject_campaign.plan_result) -> p.outcome <> Inject_campaign.Stable)
      r.Inject_campaign.plan_results
  in
  if interesting = [] then
    Format.fprintf fmt "  every plan left the checker verdicts unchanged@."
  else begin
    Format.fprintf fmt "  non-stable plans:@.";
    List.iter
      (fun (p : Inject_campaign.plan_result) ->
        Format.fprintf fmt "    %a -> %s@." Fault_plan.pp p.plan
          (Inject_campaign.outcome_to_string p.outcome);
        List.iter
          (fun (d : Inject_campaign.unit_diff) ->
            if d.masked_cases <> [] || d.spurious_cases <> [] then
              Format.fprintf fmt "      %s: masked [%s] spurious [%s]@." d.testcase
                (String.concat " " (List.map Case.to_string d.masked_cases))
                (String.concat " " (List.map Case.to_string d.spurious_cases)))
          p.diffs)
      interesting
  end;
  Format.fprintf fmt "  checker stability: %.1f%% of plans, %.1f%% of units@."
    (pct r.Inject_campaign.plan_totals.stable plans)
    (pct r.Inject_campaign.unit_totals.stable (plans * r.Inject_campaign.testcases))

(* {2 JSON}

   Deliberately contains no wall time or host detail: the acceptance
   criterion is that reports for the same seed are byte-identical across
   job counts and reruns. *)

let cases_value cases =
  Obs.Json.Arr (List.map (fun c -> Obs.Json.Str (Case.to_string c)) cases)

let counts_value (c : Inject_campaign.counts) =
  Obs.Json.(
    Obj
      [
        ("stable", Int c.Inject_campaign.stable);
        ("spurious", Int c.Inject_campaign.spurious);
        ("masked", Int c.Inject_campaign.masked);
      ])

let fault_value (f : Fault_plan.fault) =
  Obs.Json.(
    Obj
      [
        ("model", Str (Fault_model.to_string f.model));
        ("window_start", Int f.window_start);
        ("window_len", Int f.window_len);
        ("select", Int f.select);
        ("bit", Int f.bit);
      ])

let diff_value (d : Inject_campaign.unit_diff) =
  Obs.Json.(
    Obj
      [
        ("testcase", Str d.testcase);
        ("masked", cases_value d.masked_cases);
        ("spurious", cases_value d.spurious_cases);
      ])

let plan_result_value (p : Inject_campaign.plan_result) =
  let non_stable =
    List.filter
      (fun (d : Inject_campaign.unit_diff) ->
        d.masked_cases <> [] || d.spurious_cases <> [])
      p.diffs
  in
  Obs.Json.(
    Obj
      [
        ("id", Int p.plan.Fault_plan.id);
        ("plan_seed", Str (Word.to_hex p.plan.Fault_plan.plan_seed));
        ("outcome", Str (Inject_campaign.outcome_to_string p.outcome));
        ("faults_applied", Int p.faults_applied);
        ("faults", Arr (List.map fault_value p.plan.Fault_plan.faults));
        ("diffs", Arr (List.map diff_value non_stable));
      ])

let to_json_string (r : Inject_campaign.result) =
  let open Obs.Json in
  let by key name (x, c) = Obj [ (key, Str (name x)); ("counts", counts_value c) ] in
  document
    [
      ("core", Inline (Str r.Inject_campaign.config.Config.name));
      ("seed", Inline (Str (Word.to_hex r.Inject_campaign.seed)));
      ("plans", Inline (Int (List.length r.Inject_campaign.plan_results)));
      ("testcases", Inline (Int r.Inject_campaign.testcases));
      ( "baseline",
        Inline
          (Obj
             [
               ("found", cases_value r.Inject_campaign.baseline_found);
               ("matches_paper", Bool r.Inject_campaign.baseline_matches_paper);
               ("residue_warnings", Int r.Inject_campaign.baseline_residue);
             ]) );
      ("plan_totals", Inline (counts_value r.Inject_campaign.plan_totals));
      ("unit_totals", Inline (counts_value r.Inject_campaign.unit_totals));
      ( "by_model",
        Items (by "model" Fault_model.to_string, r.Inject_campaign.by_model) );
      ( "by_structure",
        Items
          (by "structure" Structure.to_string, r.Inject_campaign.by_structure)
      );
      ("plan_results", Rows (plan_result_value, r.Inject_campaign.plan_results));
      ("provenance", Items (Provenance.to_value, r.Inject_campaign.provenance));
    ]

let save_json ~path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_json_string r))
