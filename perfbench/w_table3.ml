(* table3: the full 585-case grid through [Campaign.run ~jobs:1] on both
   cores, on a fresh snapshot engine per pass — the paper's Table 3. *)

open Teesec

let setup ?(wave = false) () =
  (Fuzzer.corpus (), List.map (fun c -> (c, Snapshot.create ~wave c)) Util.configs)

(* The verdict-bearing parts of one core's campaign result. *)
type fingerprint = {
  paper : bool;  (** Found set equals the paper's Table 3 column. *)
  csv : string;
  cycles : int;
  records : int;
  provenance : string;
}

let fingerprint (r : Campaign.result) =
  {
    paper = Campaign.matches_paper r;
    csv = Tables.table3_csv [ r ];
    cycles = r.Campaign.total_cycles;
    records = r.Campaign.total_log_records;
    provenance = Provenance.list_to_json r.Campaign.provenance;
  }

(* Per core, [None] if it raised; wave events and bytes. *)
type results = { fps : fingerprint option list; waves : int * int }

(* A stream that fails to decode fails the pass. *)
let wave_counts (r : Campaign.result) =
  List.fold_left
    (fun (events, bytes) (name, stream) ->
      match Wave.Event.decode stream with
      | Ok l -> (events + List.length l, bytes + String.length stream)
      | Error e -> failwith (Printf.sprintf "wave stream of %s: %s" name e))
    (0, 0) r.Campaign.waves

(* One untraced pass over both cores, in its own process.  Per-case
   latencies come from the [~progress] stream, which fires after each
   case at [jobs = 1]. *)
let pass ?(wave = false) () =
  let setup_s = ref [] in
  let corpus, engines = Util.setup_samples ~reps:5 setup_s (setup ~wave) in
  let lat = ref [] and waves = ref (0, 0) and seconds = ref 0. and words = ref 0. in
  let results =
    List.map
      (fun (config, engine) ->
        Calib.checkpoint ();
        let case_ms = Array.make (List.length corpus) 0. in
        let last = ref 0. in
        let progress i _ _ =
          let t = Util.cpu () in
          case_ms.(i - 1) <- (t -. !last) *. 1e3;
          last := t
        in
        match
          Util.metered (fun () ->
              last := Util.cpu ();
              Campaign.run ~progress ~jobs:1 ~snapshots:engine ~wave config corpus)
        with
        | r, dt, w ->
          seconds := !seconds +. dt;
          words := !words +. w;
          Array.iteri
            (fun i ms -> lat := (Printf.sprintf "%s/%d" (Util.core_name config) i, ms) :: !lat)
            case_ms;
          let e, b = wave_counts r and e0, b0 = !waves in
          waves := (e0 + e, b0 + b);
          Some (fingerprint r)
        | exception e -> Util.report_exn "Campaign.run" e; None)
      engines
  in
  Calib.checkpoint ();
  {
    Util.p_setup_s = !setup_s;
    p_seconds = !seconds;
    p_ref_s = Calib.take ();
    p_lat_ms = !lat;
    p_words = !words;
    p_heap_mb = Util.top_heap_mb ();
    p_units = List.length corpus * List.length engines;
    p_results = { fps = results; waves = !waves };
  }

(* Every pass must reproduce the paper's column and the first pass's
   results; a core that fails either counts all its cases as failed. *)
let judge () =
  let reference = ref None in
  fun (p : results Util.pass) ->
    if !reference = None then reference := Some p.Util.p_results.fps;
    let per_core = p.Util.p_units / List.length p.Util.p_results.fps in
    List.fold_left2
      (fun failed r ref_r ->
        match r with
        | Some fp when fp.paper && Some fp = ref_r -> failed
        | _ -> failed + per_core)
      0 p.Util.p_results.fps (Option.get !reference)

let run ~deadline ~seed:_ =
  let passes, died = Util.passes deadline (fun _ () -> pass ()) in
  let judge = judge () in
  let failed = List.fold_left (fun n p -> n + judge p) 0 passes in
  let attempted = List.fold_left (fun n p -> n + p.Util.p_units) 0 passes in
  Util.e2e ~attempted ~failed ~died passes

(* [Campaign.eval_case], composed from the public calls it makes so each
   gets its own span; [Campaign.aggregate] folds the outcomes exactly as
   [Campaign.run] does. *)
let eval_traced c config engine tc : Campaign.case_outcome =
  let outcome = Layer.runner ~snapshots:engine config tc in
  let findings = Layer.check outcome in
  let provenance = Layer.provenance config outcome findings in
  ignore (Layer.count c outcome);
  c.Layer.units <- c.Layer.units + 1;
  Span.with_ "teesec.report.summary_line" (fun () ->
      {
        Campaign.co_name = Testcase.name tc;
        co_cases = Checker.distinct_cases findings;
        co_residue = Checker.residue_warnings findings;
        co_cycles = outcome.Runner.cycles;
        co_log_records = outcome.Runner.log_records;
        co_summary = Report.summary_line tc findings;
        co_wave = outcome.Runner.wave;
        co_provenance = provenance;
      })

(* The traced pass, in its own process: spans, counters, snapshot
   statistics and the per-core fingerprints come back to the parent. *)
let traced_pass () =
  Span.start ();
  let c = Layer.counters () in
  let corpus, engines = setup () in
  let t0 = Util.cpu () in
  let results =
    List.map
      (fun (config, engine) ->
        Span.with_ "bench.job" (fun () ->
            let outcomes =
              List.map
                (fun tc -> Span.with_ "bench.unit" (fun () -> eval_traced c config engine tc))
                corpus
            in
            fingerprint
              (Span.with_ "teesec.campaign.aggregate" (fun () ->
                   Campaign.aggregate config outcomes))))
      engines
  in
  let seconds = Util.cpu () -. t0 in
  (results, seconds, !Span.recorded, c, List.map (fun (_, e) -> Snapshot.stats e) engines)

let trace ~deadline ~seed:_ =
  let c = Layer.counters () in
  let untraced_s = ref [] and traced_s = ref [] and wave_s = ref [] in
  let agree = ref true and attempted = ref 0 and failed = ref 0 in
  let stats = ref [] and wave_events = ref 0 and wave_bytes = ref 0 and wave_units = ref 0 in
  let judge = judge () in
  Util.until deadline (fun () ->
      match (Util.child pass, Util.child traced_pass, Util.child (pass ~wave:true)) with
      | Some p, Some (results, dt, spans, pc, ps), Some w ->
        untraced_s := p.Util.p_seconds :: !untraced_s;
        traced_s := dt :: !traced_s;
        wave_s := w.Util.p_seconds :: !wave_s;
        Span.absorb spans;
        Layer.add_counters c pc;
        stats := ps @ !stats;
        let e, b = w.Util.p_results.waves in
        wave_events := !wave_events + e;
        wave_bytes := !wave_bytes + b;
        wave_units := !wave_units + w.Util.p_units;
        let verdicts = List.map (Option.map (fun f -> f.csv)) in
        if p.Util.p_results.fps <> List.map Option.some results
           || verdicts w.Util.p_results.fps <> verdicts p.Util.p_results.fps
        then agree := false;
        attempted := !attempted + p.Util.p_units + pc.Layer.units + w.Util.p_units;
        failed := !failed + judge p + judge w
      | _ ->
        agree := false;
        attempted := !attempted + 1;
        failed := !failed + 1);
  let tbl = Span.table () in
  let f = float_of_int in
  let per_pass = f !wave_units /. f (max 1 (List.length !wave_s)) in
  {
    Util.layers =
      Layer.metrics tbl c
      @ Layer.snapshot_ratios !stats
      @ [
          ("teesec.campaign.aggregate_ms", Span.mean_self ~scale:1e3 tbl "teesec.campaign.aggregate");
          ("wave.events_per_unit", Util.ratio (f !wave_events) (f !wave_units));
          ("wave.bytes_per_unit", Util.ratio (f !wave_bytes) (f !wave_units));
          ("wave.tap_overhead", Util.median !wave_s /. Util.median !untraced_s);
          ("wave.units_per_s", per_pass /. Util.median !wave_s);
        ];
    agree = !agree;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    t_attempted = !attempted;
    t_failed = !failed;
  }
