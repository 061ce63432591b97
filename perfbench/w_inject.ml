(* inject: 20 fault plans over the 30-case slice on both cores —
   [Inject_campaign.run ~jobs:1], taken apart into the [eval_case] calls
   it maps over the slice so each test case's evaluation (clean baseline
   plus one faulted rerun per plan) is a latency sample, and folded by
   [aggregate] exactly as [run] folds it.

   Pass [k] of a run with seed [s] samples its plans with plan seed
   [s * 1_000_000 + 20k]: plan [i] of a batch is drawn from seed + i, so
   batches 20 apart share no plan.  A case's cost depends on how many
   plans fire within its access span, so one batch moves the latency
   median by up to 40% from seed to seed; a run over a fresh batch per
   pass measures the workload rather than one draw of it. *)

open Teesec
module IC = Inject.Inject_campaign

let plans = 20
let batch_seed seed k =
  Int64.add (Int64.mul (Int64.of_int seed) 1_000_000L) (Int64.of_int (plans * k))

let setup seed () =
  ( Mitigation_eval.slice (),
    Inject.Fault_plan.sample ~seed ~count:plans,
    List.map (fun c -> (c, Snapshot.create c)) Util.configs )

type fingerprint = { sound : bool; json : string }

(* Sound: the clean baseline reproduces the paper's column and every
   plan and (plan, case) unit is classified. *)
let fingerprint ~cases (r : IC.result) =
  let total (k : IC.counts) = k.IC.stable + k.IC.spurious + k.IC.masked in
  {
    sound =
      r.IC.baseline_matches_paper
      && List.length r.IC.plan_results = plans
      && total r.IC.plan_totals = plans
      && total r.IC.unit_totals = plans * cases;
    json = Inject.Robustness_report.to_json_string r;
  }

(* What a traced pass must reproduce per core: the report, and each
   baseline's access-phase cycles (faults applied are in the report). *)
type outcome = { fp : fingerprint; spans : int list }

let outcome ~cases evals r =
  { fp = fingerprint ~cases r; spans = List.map (fun ev -> ev.IC.ce_base.IC.b_span) evals }

let pass seed () =
  let setup_s = ref [] in
  let slice, plan_list, engines = Util.setup_samples ~reps:5 setup_s (setup seed) in
  let lat = ref [] and seconds = ref 0. and words = ref 0. in
  let metered f =
    let r, dt, w = Util.metered f in
    seconds := !seconds +. dt;
    words := !words +. w;
    (r, dt)
  in
  let results =
    List.map
      (fun (config, engine) ->
        Calib.checkpoint ();
        let eval tc =
          let ev, dt = metered (fun () -> IC.eval_case ~snapshots:engine config plan_list tc) in
          (ev, (Util.core_name config ^ "/" ^ Testcase.name tc, dt *. 1e3))
        in
        match List.split (List.map eval slice) with
        | evals, samples ->
          lat := samples @ !lat;
          let r, _ =
            metered (fun () -> IC.aggregate ~seed ~plan_list config evals)
          in
          Some (outcome ~cases:(List.length slice) evals r)
        | exception e -> Util.report_exn "Inject_campaign.eval_case" e; None)
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
    p_units = plans * List.length slice * List.length engines;
    p_results = results;
  }

(* The CLI's own entry point, once per run: its reports must equal the
   passes' (which also pins that taking it apart changed nothing). *)
let via_run seed () =
  let slice, _, engines = setup seed () in
  List.map
    (fun (config, engine) ->
      fingerprint ~cases:(List.length slice)
        (IC.run ~jobs:1 ~snapshots:engine ~seed ~plans config slice))
    engines

(* A core whose report is unsound, or differs from [reference] where
   one is given, counts all its units as failed. *)
let judge ?reference (p : outcome option list Util.pass) =
  let per_core = p.Util.p_units / List.length p.Util.p_results in
  let own = List.map (Option.map (fun o -> o.fp)) p.Util.p_results in
  List.fold_left2
    (fun failed r ref_r ->
      match r with
      | Some o when o.fp.sound && Some o.fp = ref_r -> failed
      | _ -> failed + per_core)
    0 p.Util.p_results
    (Option.value reference ~default:own)

(* Every pass must be sound; the first must also equal
   [Inject_campaign.run] on its batch. *)
let run ~deadline ~seed =
  let passes, died = Util.passes deadline (fun k -> pass (batch_seed seed k)) in
  let attempted = List.fold_left (fun n p -> n + p.Util.p_units) 0 passes in
  let failed =
    match (passes, Util.child (via_run (batch_seed seed 0))) with
    | first :: rest, Some reference ->
      List.fold_left (fun n p -> n + judge p) (judge ~reference:(List.map Option.some reference) first) rest
    | [], _ -> 0
    | _, None -> attempted
  in
  Util.e2e ~attempted ~failed ~died passes

(* [Inject_campaign.eval_case], composed from the public calls it makes:
   the clean baseline, then one rerun per plan with the injector armed
   at the fork point — skipped, as the snapshot path skips it, when no
   fault of the plan can fire within the baseline's access span. *)
let eval_traced c ~faults config engine plan_list tc : IC.case_eval =
  let outcome = Layer.runner ~snapshots:engine config tc in
  let findings = Layer.check outcome in
  let provenance = Layer.provenance config outcome findings in
  ignore (Layer.count c outcome);
  c.Layer.units <- c.Layer.units + 1;
  let base =
    {
      IC.b_name = Testcase.name tc;
      b_cases = Checker.distinct_cases findings;
      b_residue = Checker.residue_warnings findings;
      b_span = outcome.Runner.cycles - outcome.Runner.fork_cycle;
      b_wave = outcome.Runner.wave;
      b_provenance = provenance;
    }
  in
  let unit_of (plan : Inject.Fault_plan.t) =
    let planned, applied = !faults in
    let never_fires =
      List.for_all
        (fun (f : Inject.Fault_plan.fault) -> f.Inject.Fault_plan.window_start > base.IC.b_span)
        plan.Inject.Fault_plan.faults
    in
    if never_fires then begin
      faults := (planned + List.length plan.Inject.Fault_plan.faults, applied);
      ({ IC.testcase = base.IC.b_name; masked_cases = []; spurious_cases = [] }, 0)
    end
    else begin
      let outcome =
        Layer.runner ~snapshots:engine
          ~prepare:(fun env -> Inject.Injector.arm env.Env.machine plan)
          config tc
      in
      let cases = Checker.distinct_cases (Layer.check outcome) in
      let st = Layer.count c outcome in
      c.Layer.units <- c.Layer.units + 1;
      let n = st.Simlog.Stats.faults_injected in
      faults := (planned + List.length plan.Inject.Fault_plan.faults, applied + n);
      let missing a b = List.filter (fun x -> not (List.exists (Case.equal x) b)) a in
      ( {
          IC.testcase = base.IC.b_name;
          masked_cases = missing base.IC.b_cases cases;
          spurious_cases = missing cases base.IC.b_cases;
        },
        n )
    end
  in
  { IC.ce_base = base; ce_units = Array.of_list (List.map unit_of plan_list) }

let traced_pass seed () =
  Span.start ();
  let c = Layer.counters () and faults = ref (0, 0) in
  let slice, plan_list, engines = setup seed () in
  let t0 = Util.cpu () in
  let results =
    List.map
      (fun (config, engine) ->
        Span.with_ "bench.job" (fun () ->
            let evals =
              List.map
                (fun tc ->
                  Span.with_ "bench.unit" (fun () ->
                      eval_traced c ~faults config engine plan_list tc))
                slice
            in
            outcome ~cases:(List.length slice) evals
              (Span.with_ "inject.inject_campaign.aggregate" (fun () ->
                   IC.aggregate ~seed ~plan_list config evals))))
      engines
  in
  let seconds = Util.cpu () -. t0 in
  (results, seconds, !Span.recorded, c, !faults, List.map (fun (_, e) -> Snapshot.stats e) engines)

let trace ~deadline ~seed =
  let c = Layer.counters () in
  let untraced_s = ref [] and traced_s = ref [] and stats = ref [] in
  let agree = ref true and attempted = ref 0 and failed = ref 0 in
  let planned = ref 0 and applied = ref 0 and k = ref 0 in
  Util.until deadline (fun () ->
      let batch = batch_seed seed !k in
      incr k;
      match (Util.child (pass batch), Util.child (traced_pass batch)) with
      | Some p, Some (results, dt, spans, pc, (pl, ap), ps) ->
        untraced_s := p.Util.p_seconds :: !untraced_s;
        traced_s := dt :: !traced_s;
        Span.absorb spans;
        Layer.add_counters c pc;
        stats := ps @ !stats;
        planned := !planned + pl;
        applied := !applied + ap;
        if p.Util.p_results <> List.map Option.some results then agree := false;
        attempted := !attempted + (2 * p.Util.p_units);
        failed := !failed + judge p
      | _ ->
        agree := false;
        attempted := !attempted + 1;
        failed := !failed + 1);
  let tbl = Span.table () in
  {
    Util.layers =
      Layer.metrics tbl c
      @ Layer.snapshot_ratios !stats
      @ [
          ("inject.eval_case_ms", Span.mean_total ~scale:1e3 tbl "bench.unit");
          ("inject.faults_applied_share", Util.ratio (float_of_int !applied) (float_of_int !planned));
        ];
    agree = !agree;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    t_attempted = !attempted;
    t_failed = !failed;
  }
