(* Run pipelines: the campaign (Table 3), fault injection, fuzzing,
   symbolic exploration, mitigation and coverage evaluation, the
   verification report, and the profiler over all of them. *)

open Cmdliner
open Terms

let load_corpus path =
  match Fuzz.Corpus_io.load ~path with
  | Ok testcases -> testcases
  | Error msg ->
    Format.printf "failed to load %s: %s@." path msg;
    exit 1

let campaign_cmd =
  let run (spec, config) quiet h csv provenance_out =
    let result =
      run_pipeline h ~config ~pp:Teesec.Campaign.pp_result
        ~waves:(fun r -> r.Teesec.Campaign.waves)
        (fun ~jobs ~obs ~snapshots ~wave ->
          Teesec.Campaign.run ~progress:(progress ~digits:3 quiet) ~jobs ~obs
            ?snapshots ~wave config (Request.corpus_of spec))
    in
    (match provenance_out with
    | Some path ->
      Obs.write_file ~path
        (Teesec.Provenance.list_to_json result.Teesec.Campaign.provenance
        ^ "\n");
      Format.printf "provenance (%d record(s)) written to %s@."
        (List.length result.Teesec.Campaign.provenance)
        path
    | None -> ());
    match csv with
    | Some path ->
      Obs.write_file ~path (Teesec.Tables.table3_csv [ result ]);
      Format.printf "CSV written to %s@." path
    | None -> ()
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE"
           ~doc:"Also write the per-case verdicts as CSV.")
  in
  let provenance_out =
    Arg.(value & opt (some string) None & info [ "provenance" ] ~docv:"FILE"
           ~doc:"Write the per-finding provenance records (the causal \
                 chains behind every classified finding) as JSON; feed an \
                 id from it to $(b,teesec explain).")
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Run a leakage-discovery campaign (Table 3).")
    Term.(const run $ validated campaign_spec $ quiet $ harness $ csv
          $ provenance_out)

(* inject: checker-robustness campaign under sampled fault plans. *)
let inject_cmd =
  let run (spec, config) quiet h json =
    let faults, seed =
      match spec with
      | Request.Inject { faults; seed; _ } -> (faults, seed)
      | Request.Campaign _ | Request.Fuzz _ -> assert false
    in
    let result =
      run_pipeline h ~config ~pp:Inject.Robustness_report.pp
        ~waves:(fun r -> r.Inject.Inject_campaign.waves)
        (fun ~jobs ~obs ~snapshots ~wave ->
          Inject.Inject_campaign.run ~progress:(progress ~digits:4 quiet) ~jobs
            ~obs ?snapshots ~wave ~seed ~plans:faults config
            (Request.corpus_of spec))
    in
    match json with
    | Some path ->
      Inject.Robustness_report.save_json ~path result;
      Format.printf "JSON report written to %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Rerun the corpus under deterministic fault injection and report \
          whether the checker's verdicts are masked, spurious or stable.")
    Term.(const run $ validated inject_spec $ quiet $ harness $ json_arg)

(* fuzz: the coverage-guided mutational engine (lib/fuzz). *)
let fuzz_cmd =
  let run (spec, config) quiet h json save_corpus corpus =
    let options =
      match spec with
      | Request.Fuzz { options; _ } -> options
      | Request.Campaign _ | Request.Inject _ -> assert false
    in
    let seeds =
      Option.map
        (fun path ->
          let testcases = load_corpus path in
          if not quiet then
            Format.printf "seeding from %s (%d entries)@." path
              (List.length testcases);
          testcases)
        corpus
    in
    let report =
      run_pipeline h ~config ~pp:Fuzz.Fuzz_report.pp
        ~waves:(fun r -> r.Fuzz.Engine.waves)
        (fun ~jobs ~obs ~snapshots ~wave ->
          Fuzz.Engine.run ~progress:(progress ~digits:4 quiet) ~jobs ~obs
            ?snapshots ~wave ?seeds options config)
    in
    (match save_corpus with
    | Some path ->
      Fuzz.Corpus_io.save ~path report.Fuzz.Engine.corpus_cases;
      Format.printf "interesting corpus (%d entries) written to %s@."
        (List.length report.Fuzz.Engine.corpus_cases)
        path
    | None -> ());
    match json with
    | Some path ->
      Fuzz.Fuzz_report.save_json ~path report;
      Format.printf "JSON report written to %s@." path
    | None -> ()
  in
  let save_corpus =
    Arg.(value & opt (some string) None & info [ "save-corpus" ] ~docv:"FILE"
           ~doc:"Write the interesting corpus entries as a corpus file \
                 (see corpus-min).")
  in
  let corpus =
    Arg.(value & opt (some file) None & info [ "corpus" ] ~docv:"FILE"
           ~doc:"Seed the campaign from a corpus file (e.g. one emitted by \
                 symex --emit-corpus); the entries run right after the \
                 built-in seeds.  Ignored by the blind baseline (--energy 0).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run the coverage-guided mutational fuzzing engine against a core \
          and report discovery times per leakage case.")
    Term.(const run $ validated fuzz_spec $ quiet $ harness $ json_arg
          $ save_corpus $ corpus)

(* corpus-min: standalone corpus distillation. *)
let corpus_min_cmd =
  let run config input output jobs =
    let testcases = load_corpus input in
    let observations =
      Parallel.Pool.parmap ~jobs (Fuzz.Observe.run config) testcases
    in
    let edges = List.map (fun (o : Fuzz.Observe.t) -> o.Fuzz.Observe.edges) observations in
    let kept = Fuzz.Distill.apply edges testcases in
    Fuzz.Corpus_io.save ~path:output kept;
    Format.printf "%d test case(s) distilled to %d preserving coverage; written to %s@."
      (List.length testcases) (List.length kept) output
  in
  let input =
    Arg.(required & opt (some file) None & info [ "in"; "i" ] ~docv:"FILE"
           ~doc:"Input corpus file (from fuzz --save-corpus, or hand-written).")
  in
  let output =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output corpus file.")
  in
  Cmd.v
    (Cmd.info "corpus-min"
       ~doc:
         "Reduce a corpus to a minimal subset preserving its coverage on a \
          core (greedy set cover over coverage edges; deterministic).")
    Term.(const run $ core_arg $ input $ output $ jobs_arg)

(* symex: symbolic exploration of the SBI surface. *)
let symex_cmd =
  let run config max_paths emit_corpus json quiet jobs trace metrics =
    let report =
      with_obs ~trace ~metrics (fun obs ->
          Symex.Explore.run ~jobs ~max_paths ~obs config)
    in
    if not quiet then print_string (Symex.Symex_report.to_text report);
    (match json with
    | Some path ->
      Symex.Symex_report.save_json ~path report;
      Format.printf "JSON report written to %s@." path
    | None -> ());
    match emit_corpus with
    | Some path ->
      let n = Symex.Synthesize.emit report ~path in
      Format.printf "corpus: %d entr%s written to %s@." n
        (if n = 1 then "y" else "ies")
        path
    | None -> ()
  in
  let max_paths =
    checked
      (fun n ->
        if n > 0 then Ok n
        else Error (Printf.sprintf "--max-paths must be positive, got %d" n))
      Arg.(value & opt int Symex.Explore.default_max_paths
           & info [ "max-paths" ] ~docv:"N"
               ~doc:"Path budget per (scenario, call) model program; the DFS \
                     stops and the report is marked truncated once reached.")
  in
  let emit_corpus =
    Arg.(value & opt (some string) None & info [ "emit-corpus" ] ~docv:"FILE"
           ~doc:"Lower the accepted-path witnesses into gadget test cases \
                 and write them as a corpus file (load with fuzz --corpus).")
  in
  Cmd.v
    (Cmd.info "symex"
       ~doc:
         "Symbolically execute the SBI surface: enumerate every monitor \
          entry path per call, concretise witness argument vectors, \
          validate them by concrete replay, and optionally synthesise a \
          fuzz seed corpus from the accepted paths.")
    Term.(const run $ core_arg $ max_paths $ emit_corpus $ json_arg $ quiet
          $ jobs_arg $ trace_arg $ metrics_arg)

(* mitigations *)
let mitigations_cmd =
  let run config jobs =
    let result = Teesec.Mitigation_eval.evaluate ~jobs config in
    Format.printf "%a@." Teesec.Mitigation_eval.pp_result result;
    print_string (Teesec.Tables.table4 [ result ])
  in
  Cmd.v (Cmd.info "mitigations" ~doc:"Evaluate the Table 4 mitigation knobs on a core.")
    Term.(const run $ core_arg $ jobs_arg)

(* coverage *)
let coverage_cmd =
  let run config full jobs =
    Format.printf "%a@." Teesec.Coverage.pp
      (Teesec.Coverage.measure ~jobs config (Request.corpus_cases (grid full)))
  in
  Cmd.v
    (Cmd.info "coverage" ~doc:"Report verification-plan coverage of a corpus on a core.")
    Term.(const run $ core_arg $ full $ jobs_arg)

(* report *)
let report_cmd =
  let run cores out full =
    let configs =
      match cores with
      | [] -> [ Uarch.Config.boom; Uarch.Config.xiangshan ]
      | l -> List.map snd l
    in
    let options =
      { Teesec.Verification_report.default_options with full_corpus = full }
    in
    let bytes = Teesec.Verification_report.save ~options ~path:out configs in
    Format.printf "Wrote %s (%d bytes) covering %s.@." out bytes
      (String.concat ", " (List.map (fun c -> c.Uarch.Config.name) configs))
  in
  let cores =
    Arg.(value & opt_all core_conv [] & info [ "core" ] ~docv:"CORE"
           ~doc:"Core(s) to cover (repeatable; default both).")
  in
  let out =
    Arg.(value & opt string "VERIFICATION_REPORT.md" & info [ "out"; "o" ]
           ~docv:"FILE" ~doc:"Output markdown file.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Generate the complete markdown verification report for one or more cores.")
    Term.(const run $ cores $ out $ full)

(* profile: per-phase wall-time and allocation breakdown over small
   slices of every pipeline.  Unlike the other subcommands this always
   runs with an active sink — the timings are the point — and
   --trace/--metrics additionally export the collected data.  The
   checker phases re-check prepared simulation logs with both the
   indexed and the reference implementation, isolating checker cost
   from simulation cost. *)
let profile_cmd =
  let run config jobs budget faults repeat trace metrics =
    let obs = Obs.create () in
    let phases = ref [] in
    let phase name f =
      let g0 = Gc.quick_stat () in
      let result, secs = Obs.timed obs name f in
      let g1 = Gc.quick_stat () in
      phases :=
        ( name,
          secs,
          g1.Gc.minor_words -. g0.Gc.minor_words,
          g1.Gc.major_words -. g0.Gc.major_words,
          g1.Gc.promoted_words -. g0.Gc.promoted_words )
        :: !phases;
      Obs.gc_sample obs ~phase:name;
      result
    in
    let slice = Teesec.Mitigation_eval.slice () in
    let (_ : Teesec.Campaign.result) =
      phase "campaign" (fun () -> Teesec.Campaign.run ~jobs ~obs config slice)
    in
    let outcomes =
      phase "runner" (fun () -> List.map (Teesec.Runner.run config) slice)
    in
    (* The snapshot engine over the same slice: the first pass replays
       and populates the cache (second-touch admission), the second pass
       restores from it — the delta against [runner] is the engine's
       win, and the restore histogram isolates per-restore cost. *)
    let snap = Teesec.Snapshot.create ~obs config in
    let run_snap () =
      List.iter
        (fun tc -> ignore (Teesec.Runner.run ~snapshots:snap config tc))
        slice
    in
    phase "snapshot/warmup" run_snap;
    phase "snapshot/hot" run_snap;
    let m =
      match Obs.metrics obs with Some m -> m | None -> assert false
    in
    let h_impl impl =
      Obs.Metrics.histogram m
        ~labels:[ ("impl", impl) ]
        ~help:"Wall time of one checker pass over a log."
        "teesec_checker_duration_seconds"
    in
    let h_indexed = h_impl "indexed" in
    let h_reference = h_impl "reference" in
    let check_all name histogram checkfn =
      phase name (fun () ->
          for _ = 1 to repeat do
            List.iter
              (fun (o : Teesec.Runner.outcome) ->
                let (_ : Teesec.Checker.finding list), _ =
                  Obs.timed obs ~histogram name (fun () ->
                      checkfn o.Teesec.Runner.log o.Teesec.Runner.tracker)
                in
                ())
              outcomes
          done)
    in
    check_all "checker/indexed" h_indexed Teesec.Checker.check;
    check_all "checker/reference" h_reference Teesec.Checker.check_reference;
    let (_ : Inject.Inject_campaign.result) =
      phase "inject" (fun () ->
          Inject.Inject_campaign.run ~jobs ~obs ~seed:default_seed ~plans:faults
            config slice)
    in
    let (_ : Fuzz.Engine.report) =
      phase "fuzz" (fun () ->
          Fuzz.Engine.run ~jobs ~obs
            { Fuzz.Engine.default with Fuzz.Engine.budget }
            config)
    in
    let (_ : Symex.Explore.t) =
      phase "symex" (fun () -> Symex.Explore.run ~jobs ~obs config)
    in
    Format.printf "%-20s %10s %14s %14s %14s@." "phase" "time (s)"
      "minor words" "major words" "promoted";
    List.iter
      (fun (name, secs, minor, major, promoted) ->
        Format.printf "%-20s %10.4f %14.0f %14.0f %14.0f@." name secs minor
          major promoted)
      (List.rev !phases);
    let idx_t = Obs.Metrics.histogram_sum h_indexed in
    let ref_t = Obs.Metrics.histogram_sum h_reference in
    if idx_t > 0. then
      Format.printf
        "@.checker: indexed %.4fs vs reference %.4fs over %d passes each \
         (%.1fx speedup)@."
        idx_t ref_t
        (Obs.Metrics.histogram_count h_reference)
        (ref_t /. idx_t);
    let s = Teesec.Snapshot.stats snap in
    let h_restore = Obs.Metrics.histogram m "teesec_snapshot_restore_seconds" in
    Format.printf
      "@.snapshot: %d hit(s) / %d miss(es), %d store(s); %d gadget \
       replay(s) avoided vs %d replayed; restore cost %.4fs over %d \
       restore(s)@."
      s.Teesec.Snapshot.hits s.Teesec.Snapshot.misses
      s.Teesec.Snapshot.stores s.Teesec.Snapshot.restored_gadgets
      s.Teesec.Snapshot.replayed_gadgets
      (Obs.Metrics.histogram_sum h_restore)
      (Obs.Metrics.histogram_count h_restore);
    (* Per-gadget-family throughput over the slice, on the warm snapshot
       engine: the families are wildly uneven (a memset access gadget
       touches a whole line per access), and this is where that shows. *)
    let families =
      List.fold_left
        (fun acc tc ->
          let family = Teesec.Access_path.to_string tc.Teesec.Testcase.path in
          let cases = try List.assoc family acc with Not_found -> [] in
          (family, tc :: cases) :: List.remove_assoc family acc)
        [] slice
      |> List.rev_map (fun (family, cases) -> (family, List.rev cases))
      |> List.rev
    in
    Format.printf "@.%-28s %6s %10s %12s@." "gadget family" "cases" "time (s)"
      "cases/s";
    List.iter
      (fun (family, cases) ->
        let (), secs =
          Obs.timed obs ("family/" ^ family) (fun () ->
              for _ = 1 to repeat do
                List.iter
                  (fun tc ->
                    ignore
                      (Teesec.Campaign.eval_case ~obs ~snapshots:snap config
                         tc))
                  cases
              done)
        in
        let n = repeat * List.length cases in
        Format.printf "%-28s %6d %10.4f %12.1f@." family n secs
          (if secs > 0. then float_of_int n /. secs else 0.))
      families;
    save_obs_outputs obs ~trace ~metrics
  in
  let budget =
    Arg.(value & opt int 96 & info [ "budget" ] ~docv:"N"
           ~doc:"Fuzz executions in the fuzz phase.")
  in
  let faults =
    Arg.(value & opt int 5 & info [ "faults" ] ~docv:"N"
           ~doc:"Fault plans in the inject phase.")
  in
  let repeat =
    Arg.(value & opt int 5 & info [ "repeat" ] ~docv:"N"
           ~doc:"Checker passes per prepared log, per implementation.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile the pipelines: per-phase wall time and allocation, GC \
          gauges, and the indexed-vs-reference checker split.")
    Term.(const run $ core_arg $ jobs_arg $ budget $ faults $ repeat
          $ trace_arg $ metrics_arg)
