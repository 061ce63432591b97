(* symex: symbolic exploration of the SBI surface on both cores —
   [Explore.run ~jobs:1], one call per scenario so each scenario's
   exploration is a latency sample.  Bypasses the campaign runner, the
   snapshot engine and the checker. *)

open Tee
module X = Symex.Explore

(* The compiled entry-path models are symex's input corpus: set-up
   builds them, and the checks hold every report against them. *)
let setup () =
  List.concat_map
    (fun (s : Sbi_paths.scenario) -> List.map (fun call -> Sbi_paths.model s call) Sbi.all)
    Sbi_paths.scenarios

let validated (p : X.path_report) =
  match p.X.witness with Some w -> w.X.replay_ok && w.X.monitor_ok | None -> false

(* Every unit matches a model, in model order, and every path reached
   one of that model's leaves. *)
let covers models (units : X.unit_report list) =
  List.length units = List.length models
  && List.for_all2
       (fun (m : Sbi_paths.model) (u : X.unit_report) ->
         u.X.call = m.Sbi_paths.call
         && u.X.scenario = m.Sbi_paths.scenario.Sbi_paths.name
         && List.for_all
              (fun (p : X.path_report) ->
                match p.X.leaf with Some l -> List.mem l m.Sbi_paths.leaves | None -> false)
              u.X.paths)
       models units

(* Per core ([None] if it raised), and whether every report matched
   its compiled models. *)
type results = { units : X.unit_report list option list; covered : bool }

let paths units = List.concat_map (fun (u : X.unit_report) -> u.X.paths) units

let pass () =
  let setup_s = ref [] in
  let models = Util.setup_samples ~reps:5 setup_s setup in
  let lat = ref [] and seconds = ref 0. and words = ref 0. in
  let explore config (s : Sbi_paths.scenario) =
    let r, dt, w = Util.metered (fun () -> X.run ~jobs:1 ~scenarios:[ s ] config) in
    seconds := !seconds +. dt;
    words := !words +. w;
    lat := (Util.core_name config ^ "/" ^ s.Sbi_paths.name, dt *. 1e3) :: !lat;
    r.X.units
  in
  let results =
    List.map
      (fun config ->
        Calib.checkpoint ();
        try Some (List.concat_map (explore config) Sbi_paths.scenarios)
        with e -> Util.report_exn "Explore.run" e; None)
      Util.configs
  in
  Calib.checkpoint ();
  {
    Util.p_setup_s = !setup_s;
    p_seconds = !seconds;
    p_ref_s = Calib.take ();
    p_lat_ms = !lat;
    p_words = !words;
    p_heap_mb = Util.top_heap_mb ();
    p_units =
      List.length (List.filter validated (paths (List.concat (List.filter_map Fun.id results))));
    p_results =
      {
        units = results;
        covered = List.for_all (function Some u -> covers models u | None -> false) results;
      };
  }

(* (attempted, failed) paths of a pass: a path fails when it has no
   validated witness or its core's report differs from [reference]. *)
let judge reference (p : results Util.pass) =
  List.fold_left2
    (fun (a, f) r ref_r ->
      match r with
      | Some units ->
        let ps = paths units in
        let bad =
          if p.Util.p_results.covered && r = ref_r then
            List.length (List.filter (fun x -> not (validated x)) ps)
          else List.length ps
        in
        (a + List.length ps, f + bad)
      | None -> (a + 1, f + 1))
    (0, 0) p.Util.p_results.units reference

(* The whole surface in one [Explore.run] per core — the CLI's call —
   must report exactly the per-scenario units. *)
let via_run () = List.map (fun config -> Some (X.run ~jobs:1 config).X.units) Util.configs

let run ~deadline ~seed:_ =
  let passes, died = Util.passes deadline (fun _ () -> pass ()) in
  let reference = match Util.child via_run with Some r -> r | None -> [ None; None ] in
  let attempted, failed =
    List.fold_left
      (fun (a, f) p ->
        let a', f' = judge reference p in
        (a + a', f + f'))
      (0, 0) passes
  in
  Util.e2e ~attempted ~failed ~died passes

(* One (scenario, call) unit of [Explore.run], composed from the public
   calls it makes: the model compile, the symbolic run, one
   concretisation per path, and the program- and monitor-level replays
   of each witness.  Returns what the untraced report must agree on. *)
let explore_traced config (scenario : Sbi_paths.scenario) call =
  let model = Span.with_ "tee.sbi_paths.model" (fun () -> Sbi_paths.model scenario call) in
  let res = Span.with_ "symex.eval.run" (fun () -> Symex.Eval.run model.Sbi_paths.program) in
  let leaf_of (p : Symex.Eval.path) =
    match (p.Symex.Eval.stop, p.Symex.Eval.a1) with
    | Symex.Eval.Halted, Symex.Expr.Const id ->
      List.find_opt
        (fun (l : Sbi_paths.leaf) -> Int64.equal (Int64.of_int l.Sbi_paths.leaf_id) id)
        model.Sbi_paths.leaves
    | _ -> None
  in
  let replay_program (leaf : Sbi_paths.leaf) args =
    let (a0, a1), stop =
      Span.with_ "symex.eval.concrete" (fun () -> Symex.Eval.concrete model.Sbi_paths.program ~args)
    in
    stop = Symex.Eval.Halted
    && Int64.equal a1 (Int64.of_int leaf.Sbi_paths.leaf_id)
    && match leaf.Sbi_paths.result with Some r -> Int64.equal a0 r | None -> true
  in
  let replay_monitor (leaf : Sbi_paths.leaf) args =
    let sm = Span.with_ "tee.sbi_paths.establish" (fun () -> Sbi_paths.establish config scenario) in
    let machine = Security_monitor.machine sm in
    ignore
      (Span.with_ "tee.security_monitor.run_host" (fun () ->
           Security_monitor.run_host sm (Sbi_paths.ecall_program args)));
    ignore (Span.with_ "simlog.edge.of_log" (fun () -> Simlog.Edge.of_log (Uarch.Machine.log machine)));
    let a0 = Uarch.Machine.get_reg machine Riscv.Instr.a0 in
    match leaf.Sbi_paths.outcome with
    | Sbi_paths.Accepted -> (
      match leaf.Sbi_paths.result with
      | Some r -> Int64.equal a0 r
      | None -> not (Int64.equal a0 Sbi.error_code))
    | _ -> Int64.equal a0 Sbi.error_code
  in
  let paths =
    List.map
      (fun (p : Symex.Eval.path) ->
        let leaf = leaf_of p in
        let args =
          Span.with_ "symex.solver.concretize" (fun () ->
              Symex.Solver.concretize p.Symex.Eval.constraints)
        in
        let witness =
          match (leaf, args) with
          | Some leaf, Some args ->
            let replay_ok = replay_program leaf args in
            Some (args, replay_ok, replay_monitor leaf args)
          | _ -> None
        in
        (p.Symex.Eval.path_id, Option.map (fun l -> l.Sbi_paths.leaf_id) leaf, witness))
      res.Symex.Eval.paths
  in
  (res.Symex.Eval.forks, res.Symex.Eval.pruned, paths)

(* The same projection of an untraced unit report. *)
let project (u : X.unit_report) =
  ( u.X.forks,
    u.X.pruned,
    List.map
      (fun (p : X.path_report) ->
        ( p.X.path_id,
          Option.map (fun l -> l.Sbi_paths.leaf_id) p.X.leaf,
          Option.map (fun w -> (w.X.args, w.X.replay_ok, w.X.monitor_ok)) p.X.witness ))
      u.X.paths )

let traced_pass () =
  Span.start ();
  let t0 = Util.cpu () in
  let results =
    List.map
      (fun config ->
        Span.with_ "bench.job" (fun () ->
            List.concat_map
              (fun s ->
                List.map
                  (fun call -> Span.with_ "bench.unit" (fun () -> explore_traced config s call))
                  Sbi.all)
              Sbi_paths.scenarios))
      Util.configs
  in
  (results, Util.cpu () -. t0, !Span.recorded)

let trace ~deadline ~seed:_ =
  let untraced_s = ref [] and traced_s = ref [] in
  let agree = ref true and attempted = ref 0 and failed = ref 0 in
  let forks = ref 0 and pruned = ref 0 and passes = ref 0 in
  Util.until deadline (fun () ->
      match (Util.child pass, Util.child traced_pass) with
      | Some p, Some (results, dt, spans) ->
        untraced_s := p.Util.p_seconds :: !untraced_s;
        traced_s := dt :: !traced_s;
        Span.absorb spans;
        incr passes;
        List.iter
          (List.iter (fun (f, pr, _) ->
               forks := !forks + f;
               pruned := !pruned + pr))
          results;
        if List.map (Option.map (List.map project)) p.Util.p_results.units
           <> List.map Option.some results
        then agree := false;
        let a, f = judge p.Util.p_results.units p in
        attempted := !attempted + (2 * a);
        failed := !failed + f
      | _ ->
        agree := false;
        attempted := !attempted + 1;
        failed := !failed + 1);
  let tbl = Span.table () in
  let per_pass n = Util.ratio (float_of_int n) (float_of_int !passes) in
  {
    Util.layers =
      [
        ("symex.eval.run_ms", Span.mean_self ~scale:1e3 tbl "symex.eval.run");
        ("symex.solver.concretize_us", Span.mean_self tbl "symex.solver.concretize");
        ("tee.sbi_paths.establish_ms", Span.mean_self ~scale:1e3 tbl "tee.sbi_paths.establish");
        ("symex.forks", per_pass !forks);
        ("symex.pruned", per_pass !pruned);
      ];
    agree = !agree;
    untraced_s = !untraced_s;
    traced_s = !traced_s;
    t_attempted = !attempted;
    t_failed = !failed;
  }
