(* perfbench: the repository's benchmark.

     dune exec --cache=disabled --display=quiet \
       ./perfbench/main.exe -- --workload table3 --seed 1 --seconds 30 --trace 0

   runs one workload in this (fresh) process for about [--seconds]
   seconds, checks every output it produced, prints the settings and
   every metric by name and unit, and ends with one JSON line:
   [{"correct", "attempted", "failed", "metrics"}].  With [--trace 0]
   the metrics are the end-to-end ones; with [--trace 1] a separate
   traced pass records spans around the calls into each layer (written
   to .perfbench-out/) and the metrics are the per-layer ones.  See
   RATIONALE.md for what each workload and metric is for. *)

let workloads =
  [
    ("table3", (W_table3.run, W_table3.trace));
    ("inject", (W_inject.run, W_inject.trace));
    ("symex", (W_symex.run, W_symex.trace));
  ]

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end (e : Util.e2e) =
  let f = float_of_int in
  let latency = Util.unit_medians e.Util.latency_ms in
  [
    ("setup_s", Util.median e.Util.setup_s, "s");
    ("units_per_s", Util.median e.Util.pass_rate, "1/s");
    ("unit_p50_ms", Util.median latency, "ms");
    ("unit_p99_ms", Util.quantile 0.99 latency, "ms");
    ("minor_words_per_unit", Util.ratio e.Util.minor_words (f e.Util.units), "words");
    ("top_heap_mb", e.Util.top_heap_mb, "MB");
  ]

(* The per-layer metrics, in BENCHMARK.json order.  A workload that
   never calls a layer reports 0 for that layer's span figures. *)
let per_layer =
  [
    ("teesec.assembler.assemble_us", "us");
    ("teesec.runner.setup_us", "us");
    ("teesec.runner.access_us", "us");
    ("teesec.checker.check_us", "us");
    ("teesec.checker.ns_per_record", "ns");
    ("teesec.provenance.of_outcome_us", "us");
    ("teesec.campaign.aggregate_ms", "ms");
    ("teesec.snapshot.hit_ratio", "ratio");
    ("teesec.snapshot.restored_gadget_ratio", "ratio");
    ("teesec.env.restore_us", "us");
    ("uarch.sim_cycles_per_unit", "cycles");
    ("uarch.host_ns_per_sim_cycle", "ns");
    ("uarch.machine.store_ns", "ns");
    ("uarch.machine.load_ns", "ns");
    ("uarch.machine.advance_ns", "ns");
    ("uarch.machine.memset_region_us", "us");
    ("uarch.machine.restore_us", "us");
    ("riscv.csr.bump_counter_ns", "ns");
    ("simlog.records_per_unit", "count");
    ("simlog.writes_per_unit", "count");
    ("simlog.snapshot_records_per_unit", "count");
    ("simlog.log.record_ns", "ns");
    ("simlog.minor_words_per_record", "words");
    ("wave.events_per_unit", "count");
    ("wave.bytes_per_unit", "bytes");
    ("wave.tap_overhead", "ratio");
    ("wave.units_per_s", "1/s");
    ("inject.eval_case_ms", "ms");
    ("inject.faults_applied_share", "ratio");
    ("symex.eval.run_ms", "ms");
    ("symex.solver.concretize_us", "us");
    ("tee.sbi_paths.establish_ms", "ms");
    ("symex.forks", "count");
    ("symex.pruned", "count");
    ("serve.connect_ms", "ms");
    ("serve.submit_ms", "ms");
    ("serve.results_ms", "ms");
    ("serve.store.get_us", "us");
    ("serve.store.put_us", "us");
    ("serve.codec.roundtrip_us", "us");
    ("serve.warm_hit_ratio", "ratio");
    ("bench.trace_overhead", "ratio");
    ("bench.unattributed_share", "ratio");
  ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let print_metric (name, v, unit) = Printf.printf "  %-40s %16.6g %s\n" name v unit

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of table3, inject, symex");
      ("--seed", Arg.Set_int seed, "N workload seed (fault plans of inject)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  let run, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  in
  Printf.printf
    "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d jobs=1 \
     serve_workers=%d clients=1 process=fresh snapshot=on wave=off obs=noop\n%!"
    !workload !seed !seconds !trace (Domain.recommended_domain_count ())
    (W_serve.workers ()) ;
  let deadline = Util.now () +. float_of_int !seconds in
  if !trace = 0 then begin
    let e = run ~deadline ~seed:!seed in
    let metrics = end_to_end e in
    let failed_share = Util.ratio (float_of_int e.Util.failed) (float_of_int e.Util.attempted) in
    List.iter print_metric metrics;
    List.iter print_metric
      (("failed_share", failed_share, "ratio")
       :: ("cpu_units_per_s", Util.median e.Util.cpu_rate, "1/s")
       :: ("reference_kernel_ms", Util.median e.Util.ref_ms, "ms")
       :: ("latency_samples", float_of_int (List.length e.Util.latency_ms), "count")
       :: [ ("latency_units", float_of_int (List.length (Util.unit_medians e.Util.latency_ms)), "count") ]);
    let correct = e.Util.failed = 0 && e.Util.attempted > 0 && List.for_all (fun (_, v, _) -> Float.is_finite v && v > 0.) metrics in
    result ~correct ~attempted:e.Util.attempted ~failed:e.Util.failed metrics
  end
  else begin
    Util.mkdir_p Util.out_dir;
    let t = traced ~deadline ~seed:!seed in
    let probes = Probes.run () in
    Span.write (Filename.concat Util.out_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed));
    let bench =
      [
        ("bench.trace_overhead", Util.median t.Util.traced_s /. Util.median t.Util.untraced_s);
        ("bench.unattributed_share", Span.unattributed_share ());
      ]
    in
    let s = W_serve.probe () in
    let measured = probes @ t.Util.layers @ s.Util.layers @ bench in
    let metrics =
      List.map
        (fun (name, unit) ->
          (name, Option.value (List.assoc_opt name measured) ~default:0., unit))
        per_layer
    in
    List.iter print_metric metrics;
    let agree = t.Util.agree && s.Util.agree in
    let attempted = t.Util.t_attempted + s.Util.t_attempted in
    let failed = t.Util.t_failed + s.Util.t_failed in
    Printf.printf "  traced verdicts and counts equal the untraced pass: %b\n" agree;
    let correct = agree && failed = 0 && t.Util.t_attempted > 0 in
    result ~correct ~attempted ~failed metrics
  end
