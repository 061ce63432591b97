open! Import

let pp fmt (r : Explore.t) =
  Format.fprintf fmt
    "Symbolic exploration of the SBI surface on %s (max %d paths/call%s)@."
    r.Explore.core r.Explore.max_paths
    (if r.Explore.truncated then ", TRUNCATED" else "");
  let t = r.Explore.totals in
  Format.fprintf fmt
    "  %d paths, %d witnesses (%d replay ok, %d monitor ok), %d symex-only@."
    t.Explore.paths_total t.Explore.witnesses_total t.Explore.replay_ok_total
    t.Explore.monitor_ok_total t.Explore.symex_only_total;
  Format.fprintf fmt
    "  %d missing-validation findings; solver: %d unsat, %d gave up; %d coverage edges@."
    t.Explore.findings_total t.Explore.unsat_total t.Explore.gave_up_total
    t.Explore.edges_covered;
  (* One row per scenario × call. *)
  List.iter
    (fun (u : Explore.unit_report) ->
      let witnessed =
        List.length (List.filter (fun p -> p.Explore.witness <> None) u.Explore.paths)
      in
      let accepted =
        List.filter
          (fun (p : Explore.path_report) ->
            match p.Explore.leaf with
            | Some { Sbi_paths.outcome = Sbi_paths.Accepted; _ } -> true
            | _ -> false)
          u.Explore.paths
      in
      let findings =
        List.concat_map (fun p -> List.map Explore.finding_to_string p.Explore.findings)
          accepted
      in
      Format.fprintf fmt "  %-10s %-16s %2d paths, %2d witnessed%s@."
        u.Explore.scenario
        (Sbi.to_string u.Explore.call)
        (List.length u.Explore.paths)
        witnessed
        (if findings = [] then ""
         else Printf.sprintf "  [%s]" (String.concat " " findings)))
    r.Explore.units

let to_text r = Format.asprintf "%a" pp r

(* {2 JSON} *)

let hex w = Obs.Json.Str (Word.to_hex w)

let witness_value (w : Explore.witness) =
  Obs.Json.(
    Obj
      [
        ("args", Arr (Array.to_list (Array.map hex w.Explore.args)));
        ("replay_ok", Bool w.Explore.replay_ok);
        ("monitor_ok", Bool w.Explore.monitor_ok);
      ])

let leaf_value (l : Sbi_paths.leaf) =
  Obs.Json.(
    Obj
      [
        ("leaf_id", Int l.Sbi_paths.leaf_id);
        ("outcome", Str (Sbi_paths.outcome_to_string l.Sbi_paths.outcome));
        ("result", match l.Sbi_paths.result with Some r -> hex r | None -> Null);
        ("eid", match l.Sbi_paths.eid with Some e -> Int e | None -> Null);
      ])

let path_value (p : Explore.path_report) =
  let strs l = Obs.Json.Arr (List.map (fun s -> Obs.Json.Str s) l) in
  Obs.Json.(
    Obj
      [
        ("path_id", Int p.Explore.path_id);
        ("leaf", match p.Explore.leaf with Some l -> leaf_value l | None -> Null);
        ("decisions", Arr (List.map (fun b -> Bool b) p.Explore.decisions));
        ("constraints", strs p.Explore.constraints);
        ( "witness",
          match p.Explore.witness with Some w -> witness_value w | None -> Null );
        ("findings", strs (List.map Explore.finding_to_string p.Explore.findings));
        ("baseline_reachable", Bool p.Explore.baseline_reachable);
        ("steps", Int p.Explore.steps);
      ])

let unit_value (u : Explore.unit_report) =
  Obs.Json.(
    Obj
      [
        ("scenario", Str u.Explore.scenario);
        ("call", Str (Sbi.to_string u.Explore.call));
        ("forks", Int u.Explore.forks);
        ("pruned", Int u.Explore.pruned);
        ("truncated", Bool u.Explore.truncated);
        ("paths", Arr (List.map path_value u.Explore.paths));
      ])

let to_json_string (r : Explore.t) =
  let t = r.Explore.totals in
  let open Obs.Json in
  document
    [
      ("core", Inline (Str r.Explore.core));
      ("max_paths", Inline (Int r.Explore.max_paths));
      ("truncated", Inline (Bool r.Explore.truncated));
      ( "totals",
        Inline
          (Obj
             [
               ("paths", Int t.Explore.paths_total);
               ("witnesses", Int t.Explore.witnesses_total);
               ("replay_ok", Int t.Explore.replay_ok_total);
               ("monitor_ok", Int t.Explore.monitor_ok_total);
               ("symex_only", Int t.Explore.symex_only_total);
               ("findings", Int t.Explore.findings_total);
               ("unsat", Int t.Explore.unsat_total);
               ("gave_up", Int t.Explore.gave_up_total);
               ("edges_covered", Int t.Explore.edges_covered);
             ]) );
      ("units", Rows (unit_value, r.Explore.units));
    ]

let save_json ~path r =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_json_string r))
