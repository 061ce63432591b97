(* The campaign service (lib/serve): the daemon and its clients. *)

open Cmdliner
open Terms

let socket_arg =
  Arg.(value & opt string "teesec.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket of the daemon.")

(* Poll briefly before failing: scripts background `teesec serve` and
   immediately submit, racing the daemon's bind. *)
let with_client ~socket_path f =
  match
    Serve.Client.connect_retry ~attempts:40 ~delay:0.05 ~socket_path ()
  with
  | Error e -> fail "%s" e
  | Ok client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
        f client)

let pp_job_status (js : Serve.Protocol.job_status) =
  Format.printf "job %s: %s, %d shard(s), %d done, %d from store (%d%%)%s@."
    js.Serve.Protocol.js_job js.Serve.Protocol.js_kind
    js.Serve.Protocol.js_total js.Serve.Protocol.js_done
    js.Serve.Protocol.js_hits
    (if js.Serve.Protocol.js_total = 0 then 100
     else 100 * js.Serve.Protocol.js_hits / js.Serve.Protocol.js_total)
    (match js.Serve.Protocol.js_failed with
    | Some reason -> Printf.sprintf ", FAILED: %s" reason
    | None -> if js.Serve.Protocol.js_complete then ", complete" else "")

(* version: what the handshake negotiates — scripts parse this to pick a
   matching client, so the format is pinned by the smoke tests. *)
let version_cmd =
  let run () = Format.printf "%s@." Serve.Protocol.version_string in
  Cmd.v
    (Cmd.info "version" ~doc:"Print the build and wire-protocol version.")
    Term.(const run $ const ())

(* serve: the daemon, in the foreground.  Runs until a client sends
   shutdown.  Its one JSONL event stream goes to --log, else to stdout
   unless --quiet. *)
let serve_cmd =
  let run socket_path store workers http_port max_shard_cases max_retries
      quiet log_file log_level =
    if workers < 1 then fail "--workers must be >= 1";
    let level =
      match Obs.Log.level_of_string log_level with
      | Some l -> l
      | None -> fail "--log-level must be debug, info, warn or error"
    in
    let slog =
      match log_file with
      | Some path -> Obs.Log.open_file ~level path
      | None when quiet -> Obs.Log.null
      | None -> Obs.Log.to_channel ~level stdout
    in
    let cfg =
      {
        (Serve.Daemon.default_config ~socket_path ~store_root:store) with
        Serve.Daemon.workers;
        http_port;
        max_shard_cases;
        max_retries;
        slog;
      }
    in
    Fun.protect ~finally:(fun () -> Obs.Log.close slog) (fun () ->
        Serve.Daemon.run cfg)
  in
  let store =
    Arg.(value & opt string ".teesec-store" & info [ "store" ] ~docv:"DIR"
           ~doc:"Persistent content-addressed store directory.")
  in
  let workers =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker processes (the scaling unit; each executes one \
                 shard at a time).")
  in
  let http_port =
    Arg.(value & opt (some int) None & info [ "http-port" ] ~docv:"PORT"
           ~doc:"Serve GET /metrics (Prometheus text) and /healthz on \
                 127.0.0.1:$(docv).")
  in
  let max_shard_cases =
    Arg.(value & opt int Serve.Planner.default_max_shard_cases
         & info [ "max-shard-cases" ] ~docv:"N"
             ~doc:"Test cases per shard (after the gadget-family split).")
  in
  let max_retries =
    Arg.(value & opt int 3 & info [ "max-retries" ] ~docv:"N"
           ~doc:"Assignment attempts per shard before it is poisoned.")
  in
  let log_file =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE"
           ~doc:"Write the daemon's JSONL events (submit, dispatch, \
                 worker_died, backoff, poison, job_done, ...) to $(docv) \
                 instead of stdout.")
  in
  let log_level =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Structured-log threshold: debug, info, warn or error.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign-service daemon: plan submitted requests into \
          shards, execute them on forked workers, cache verdicts in a \
          persistent content-addressed store.")
    Term.(const run $ socket_arg $ store $ workers $ http_port
          $ max_shard_cases $ max_retries $ quiet $ log_file $ log_level)

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
         ~doc:"Write the job's artifact to $(docv) instead of stdout.")

let write_file_report ~what path contents =
  Obs.write_file ~path contents;
  Format.printf "%s written to %s (%d bytes)@." what path
    (String.length contents)

(* Fetch a job's results, then write what was asked for: the merged
   trace, the waveforms (the daemon ships them framed, in shard order),
   and — when [artifact] — the artifact itself, to --out or stdout. *)
let fetch_job ?wait client job ~trace_out ~wave_out ~out ~artifact =
  match Serve.Client.results ?wait client job with
  | Error e -> fail "%s" e
  | Ok (Error js) ->
    pp_job_status js;
    exit 1
  | Ok (Ok { Serve.Client.data; trace; wave }) ->
    (match (trace_out, trace) with
    | Some path, Some json -> write_file_report ~what:"trace" path json
    | Some path, None ->
      Format.printf
        "warning: job has no trace (only a --trace submission that runs \
         it collects one); %s not written@."
        path
    | None, _ -> ());
    (match (wave_out, Option.map Wave.Event.unframe wave) with
    | Some path, Some (Ok (_ :: _ as streams)) -> write_wave_file ~path streams
    | Some path, Some (Error e) ->
      Format.printf "warning: corrupt wave payload (%s); %s not written@." e
        path
    | Some path, _ ->
      Format.printf
        "warning: job has no waveforms (only shards executed under --wave \
         record any); %s not written@."
        path
    | None, _ -> ());
    if artifact then
      match out with
      | Some path -> write_file_report ~what:"artifact" path data
      | None -> print_string data

(* submit: the one-shot subcommands' spec terms, picked by --kind. *)
let submit_cmd =
  let run socket_path (spec, _) wait out trace_out wave_out =
    with_client ~socket_path (fun client ->
        match
          Serve.Client.submit ~trace:(trace_out <> None)
            ~wave:(wave_out <> None) client spec
        with
        | Error e -> fail "%s" e
        | Ok js ->
          pp_job_status js;
          if wait || trace_out <> None || wave_out <> None then
            fetch_job client js.Serve.Protocol.js_job ~trace_out ~wave_out ~out
              ~artifact:wait)
  in
  let spec =
    let kind =
      let kinds =
        [ ("campaign", `Campaign); ("inject", `Inject); ("fuzz", `Fuzz) ]
      in
      Arg.(value & opt (enum kinds) `Campaign & info [ "kind" ] ~docv:"KIND"
             ~doc:"Request kind: campaign, inject or fuzz. The flags of \
                   the other kinds are ignored.")
    in
    validated
      Term.(
        const (fun kind campaign inject fuzz ->
            match kind with
            | `Campaign -> campaign
            | `Inject -> inject
            | `Fuzz -> fuzz)
        $ kind $ campaign_spec $ inject_spec $ fuzz_spec)
  in
  let wait =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "wait" ]
                ~doc:"Block until the job completes and fetch the artifact." );
            (false, info [ "no-wait" ] ~doc:"Submit and return (default).");
          ])
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign/inject/fuzz request to a running daemon.  \
          Shards already in the store are never re-executed; artifacts \
          are byte-identical to the one-shot subcommands.")
    Term.(const run $ socket_arg $ spec $ wait $ out_arg $ trace_arg $ wave_arg)

let pp_daemon st =
  Format.printf
    "workers %d (restarts %d); shards executed %d; store hits %d, misses %d@."
    st.Serve.Protocol.st_workers st.Serve.Protocol.st_worker_restarts
    st.Serve.Protocol.st_shards_executed st.Serve.Protocol.st_store_hits
    st.Serve.Protocol.st_store_misses

let status_of client =
  match Serve.Client.status client with Ok st -> st | Error e -> fail "%s" e

(* status *)
let status_cmd =
  let run socket_path =
    with_client ~socket_path (fun client ->
        let st = status_of client in
        Format.printf "%s@." st.Serve.Protocol.st_version;
        pp_daemon st;
        match st.Serve.Protocol.st_jobs with
        | [] -> Format.printf "no jobs@."
        | jobs -> List.iter pp_job_status jobs)
  in
  Cmd.v (Cmd.info "status" ~doc:"Print a running daemon's status and jobs.")
    Term.(const run $ socket_arg)

(* results *)
let results_cmd =
  let run socket_path job out no_wait trace_out wave_out =
    with_client ~socket_path (fun client ->
        fetch_job ~wait:(not no_wait) client job ~trace_out ~wave_out ~out
          ~artifact:true)
  in
  let job =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB"
           ~doc:"Job id (printed by submit).")
  in
  let no_wait =
    Arg.(value & flag & info [ "no-wait" ]
           ~doc:"Do not block on an incomplete job; print its status and \
                 exit nonzero.")
  in
  Cmd.v
    (Cmd.info "results" ~doc:"Fetch a job's artifact from a running daemon.")
    Term.(const run $ socket_arg $ job $ out_arg $ no_wait $ trace_arg
          $ wave_arg)

(* watch: live per-job shard progress, polled from status. *)
let watch_cmd =
  let render st =
    pp_daemon st;
    match st.Serve.Protocol.st_jobs with
    | [] -> Format.printf "no jobs@."
    | jobs ->
      List.iter
        (fun (js : Serve.Protocol.job_status) ->
          let total = js.Serve.Protocol.js_total in
          let done_ = js.Serve.Protocol.js_done in
          let width = 24 in
          let filled =
            if total = 0 then width else width * done_ / total
          in
          let bar =
            String.concat ""
              [ String.make filled '#'; String.make (width - filled) '.' ]
          in
          Format.printf "job %s %s [%s] %d/%d done, %d running%s%s@."
            js.Serve.Protocol.js_job js.Serve.Protocol.js_kind bar done_
            total js.Serve.Protocol.js_running
            (if js.Serve.Protocol.js_poisoned > 0 then
               Printf.sprintf ", %d poisoned" js.Serve.Protocol.js_poisoned
             else "")
            (match js.Serve.Protocol.js_failed with
            | Some reason -> Printf.sprintf ", FAILED: %s" reason
            | None ->
              if js.Serve.Protocol.js_complete then ", complete" else ""))
        jobs
  in
  let all_settled st =
    List.for_all
      (fun (js : Serve.Protocol.job_status) ->
        js.Serve.Protocol.js_complete || js.Serve.Protocol.js_failed <> None)
      st.Serve.Protocol.st_jobs
  in
  let run socket_path interval once until_done =
    with_client ~socket_path (fun client ->
        let rec poll first =
          let st = status_of client in
          if not first then Format.printf "---@.";
          render st;
          if once then ()
          else if until_done && st.Serve.Protocol.st_jobs <> [] && all_settled st
          then ()
          else begin
            Unix.sleepf interval;
            poll false
          end
        in
        poll true)
  in
  let interval =
    Arg.(value & opt float 1.0 & info [ "interval"; "n" ] ~docv:"SECS"
           ~doc:"Seconds between polls.")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one snapshot and exit.")
  in
  let until_done =
    Arg.(value & flag & info [ "until-done" ]
           ~doc:"Exit once every known job is complete or failed.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Poll a running daemon and render live per-job shard progress \
          (done/running/poisoned counts as a progress bar).")
    Term.(const run $ socket_arg $ interval $ once $ until_done)

(* shutdown *)
let shutdown_cmd =
  let run socket_path =
    with_client ~socket_path (fun client ->
        match Serve.Client.shutdown client with
        | Error e -> fail "%s" e
        | Ok () -> Format.printf "daemon shutting down@.")
  in
  Cmd.v (Cmd.info "shutdown" ~doc:"Ask a running daemon to exit.")
    Term.(const run $ socket_arg)
