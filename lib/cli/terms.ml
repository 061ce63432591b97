(* Terms and helpers shared by the subcommand groups.

   The run vocabulary lives here.  Every campaign, inject and fuzz flag
   is declared once and folds into a {!Serve.Request.spec}, which
   {!Serve.Request.validate} checks; the one-shot subcommands and
   `submit` take the same terms, so they accept exactly the same command
   lines and resolve cores, mitigations and corpora the same way. *)

open Cmdliner
module Request = Serve.Request

(* Print [error: ...] and exit 1: a run-time failure, as opposed to a
   command-line error (exit 124). *)
let fail fmt =
  Format.kasprintf
    (fun m ->
      Format.printf "error: %s@." m;
      exit 1)
    fmt

(* [term] mapped through a validation: [Error] is a command-line error
   (exit 124, reported like a bad flag). *)
let checked f term =
  Term.(
    ret
      (const (fun v ->
           match f v with Ok v -> `Ok v | Error e -> `Error (false, e))
      $ term))

(* --core: parsed through Request's name resolution, keeping the name
   for specs and the configuration for everything else. *)
let core_conv =
  let parse s =
    Result.map
      (fun config -> (String.lowercase_ascii s, config))
      (Request.resolve_config ~core:s ~mitigations:[])
  in
  Arg.conv' (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

let core =
  Arg.(value & opt core_conv ("boom", Uarch.Config.boom) & info [ "core" ]
         ~docv:"CORE" ~doc:"Core under test: boom or xiangshan.")

let core_arg = Term.(const snd $ core)

(* --jobs: 0 resolves to the host's recommended domain count.  Results
   are deterministic for every value (the campaign merges in test-case
   order), so this only trades wall time. *)
let jobs_arg =
  checked
    (fun jobs ->
      if jobs < 0 then Error (Printf.sprintf "--jobs must be >= 0, got %d" jobs)
      else if jobs = 0 then Ok (Parallel.Pool.default_jobs ())
      else Ok jobs)
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run independent test cases across $(docv) OCaml domains \
             (default 1; 0 = all hardware threads). Output is identical \
             for every value.")

let quiet =
  Arg.(value & flag & info [ "quiet"; "q" ]
         ~doc:"Print less: no per-test progress lines, no text summary, \
               no success message.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write the deterministic JSON report to $(docv) \
               (byte-identical for every --jobs).")

(* --trace / --metrics: observability exports.  The sink is only
   created when at least one flag is given, so unobserved runs take the
   noop path (a single branch per instrumentation point) and observed
   runs still produce byte-identical verdict output — wall-clock data
   flows only into these two files. *)
let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a Chrome trace-event JSON of the run's spans to \
               $(docv) (open in Perfetto or chrome://tracing). A service \
               job's trace merges the daemon's scheduling instants with \
               every worker's spans, clock-aligned; submit then waits for \
               the job, and results needs it submitted with --trace. \
               Never changes verdicts or reports.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the metrics registry to $(docv) in Prometheus text \
               format (JSON when $(docv) ends in .json). Never changes \
               verdicts or reports.")

let save_obs_outputs obs ~trace ~metrics =
  (match trace with
  | Some path ->
    Obs.save_trace obs ~path;
    Format.printf "trace written to %s@." path
  | None -> ());
  match metrics with
  | Some path ->
    (if Filename.check_suffix path ".json" then Obs.save_metrics_json
     else Obs.save_metrics)
      obs ~path;
    Format.printf "metrics written to %s@." path
  | None -> ()

let with_obs ~trace ~metrics f =
  let obs =
    if trace = None && metrics = None then Obs.noop else Obs.create ()
  in
  let result = f obs in
  save_obs_outputs obs ~trace ~metrics;
  result

(* --wave: microarchitectural waveform capture (lib/wave).  Like the
   observability exports, the taps never change verdicts — the
   differential suite pins byte-identical reports with taps on and
   off — so the flag only adds the side-channel file. *)
let wave_arg =
  Arg.(value & opt (some string) None & info [ "wave" ] ~docv:"FILE"
         ~doc:"Attach microarchitectural wave taps and write the run's \
               per-test-case waveforms to $(docv): VCD when $(docv) ends \
               in .vcd (load in GTKWave or Surfer), otherwise the raw \
               framed event streams (readable back by the explain and \
               vcd-check machinery). A service job's shards satisfied \
               from the verdict store contribute no streams; submit \
               waits for the job, and results needs it submitted with \
               --wave. Never changes verdicts or reports.")

let write_wave_file ~path streams =
  let contents =
    if Filename.check_suffix path ".vcd" then Wave.Vcd.render streams
    else Wave.Event.frame_streams streams
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Format.printf "waveforms (%d stream(s)) written to %s@."
    (List.length streams) path

(* --snapshot / --no-snapshot: the fork-point execution engine
   (lib/teesec/snapshot.ml).  On by default; the differential suite pins
   that reports are byte-identical either way, so the flag only trades
   wall time — --no-snapshot is the oracle path the engine is checked
   against. *)
let snapshot_arg =
  Arg.(
    value
    & vflag true
        [
          ( true,
            info [ "snapshot" ]
              ~doc:
                "Establish shared enclave-setup prefixes through the \
                 snapshot engine: run each distinct prefix once, restore \
                 the captured machine state for every later test case \
                 (default). Reports are byte-identical with or without \
                 it." );
          ( false,
            info [ "no-snapshot" ]
              ~doc:
                "Replay every gadget of every test case from scratch \
                 (the replay oracle the snapshot engine is verified \
                 against)." );
        ])

(* {2 One-shot runs} *)

type harness = {
  jobs : int;
  snapshot : bool;
  trace : string option;
  metrics : string option;
  wave_out : string option;
}

let harness =
  Term.(
    const (fun jobs snapshot trace metrics wave_out ->
        { jobs; snapshot; trace; metrics; wave_out })
    $ jobs_arg $ snapshot_arg $ trace_arg $ metrics_arg $ wave_arg)

(* Run one pipeline the way every one-shot run does: under an obs sink
   when --trace/--metrics ask for one (exported before the report), on
   the snapshot engine unless --no-snapshot, with wave taps when --wave
   names a file (written after the report). *)
let run_pipeline h ~config ~pp ~waves f =
  let wave = h.wave_out <> None in
  let result =
    with_obs ~trace:h.trace ~metrics:h.metrics (fun obs ->
        let snapshots =
          if h.snapshot then Some (Teesec.Snapshot.create ~obs ~wave config)
          else None
        in
        f ~jobs:h.jobs ~obs ~snapshots ~wave)
  in
  Format.printf "@.%a@." pp result;
  Option.iter (fun path -> write_wave_file ~path (waves result)) h.wave_out;
  result

let progress ~digits quiet =
  if quiet then fun _ _ _ -> ()
  else fun i n line -> Format.printf "[%*d/%*d] %s@." digits i digits n line

(* {2 The run vocabulary} *)

(* Every seeded run defaults to the fuzz engine's seed. *)
let default_seed = Fuzz.Engine.default.Fuzz.Engine.seed

let mitigations =
  Arg.(value & opt_all string [] & info [ "mitigation"; "m" ] ~docv:"NAME"
         ~doc:"(campaign) Enable a mitigation (repeatable).")

let full =
  Arg.(value & flag & info [ "full" ]
         ~doc:"Cover all 585 grid test cases instead of the \
               representative slice.")

let grid full = if full then Request.Full else Request.Slice

let random =
  Arg.(value & opt (some int) None & info [ "random" ] ~docv:"N"
         ~doc:"(campaign) Long-fuzzing mode: N randomly drawn test cases \
               instead of the grid corpus.")

let fuzz_seed =
  Arg.(value & opt int64 default_seed & info [ "fuzz-seed" ] ~docv:"SEED"
         ~doc:"(campaign) Seed for the random corpus.")

let faults =
  Arg.(value & opt int 25 & info [ "faults" ] ~docv:"N"
         ~doc:"(inject) Number of fault plans to sample and inject.")

let seed =
  Arg.(value & opt int64 default_seed & info [ "seed" ] ~docv:"SEED"
         ~doc:"(inject/fuzz) Campaign seed; the same seed always \
               reproduces the same plans, mutations and report.")

let budget =
  Arg.(value & opt int Fuzz.Engine.default.Fuzz.Engine.budget
       & info [ "budget" ] ~docv:"N" ~doc:"(fuzz) Total test-case executions.")

let batch =
  Arg.(value & opt int Fuzz.Engine.default.Fuzz.Engine.batch
       & info [ "batch" ] ~docv:"N"
           ~doc:"(fuzz) Candidates generated per parallel batch \
                 (independent of --jobs, so reports are too).")

let energy =
  Arg.(value & opt int Fuzz.Engine.default.Fuzz.Engine.energy
       & info [ "energy" ] ~docv:"PCT"
           ~doc:"(fuzz) Mutation energy in 0..100: percentage of \
                 candidates derived by mutating corpus entries. 0 \
                 disables feedback entirely (the blind random baseline).")

let stop_on_full =
  Arg.(value & flag & info [ "stop-on-full" ]
         ~doc:"(fuzz) Stop once every Table 3 case expected on the core \
               is found.")

let campaign_spec =
  Term.(
    const (fun (core, _) mitigations full random fuzz_seed ->
        let corpus =
          match random with
          | Some count -> Request.Random { count; seed = fuzz_seed }
          | None -> grid full
        in
        Request.Campaign { core; mitigations; corpus })
    $ core $ mitigations $ full $ random $ fuzz_seed)

let inject_spec =
  Term.(
    const (fun (core, _) faults seed full ->
        Request.Inject { core; faults; seed; full })
    $ core $ faults $ seed $ full)

let fuzz_spec =
  Term.(
    const (fun (core, _) seed budget batch energy stop_on_full ->
        Request.Fuzz
          {
            core;
            options = { Fuzz.Engine.seed; budget; batch; energy; stop_on_full };
          })
    $ core $ seed $ budget $ batch $ energy $ stop_on_full)

(* A spec term checked by {!Request.validate} — an unknown name or an
   out-of-range number is a command-line error — paired with the
   configuration it resolves to. *)
let validated spec =
  checked
    (fun spec -> Result.map (fun config -> (spec, config)) (Request.validate spec))
    spec
