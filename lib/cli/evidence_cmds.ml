(* Evidence checkers: saved simulation logs, merged traces, exported
   waveforms, and the causal chain behind a finding. *)

open Cmdliner
open Terms

(* check: the artifact's Checker.py flow — scan a saved SimLog for a
   secret value. *)
let check_cmd =
  let run logfile secrets all_contexts stats =
    match Simlog.Serialize.load ~path:logfile with
    | Error msg ->
      Format.printf "failed to parse %s: %s@." logfile msg;
      exit 1
    | Ok log ->
      if stats then Format.printf "%a@." Simlog.Stats.pp (Simlog.Stats.of_log log);
      List.iter
        (fun secret ->
          let untrusted (r : Simlog.Log.record) =
            match r.Simlog.Log.ctx with
            | Simlog.Exec_context.Host _ -> true
            | Simlog.Exec_context.Enclave _ | Simlog.Exec_context.Monitor -> false
          in
          let occurrences =
            List.filter
              (fun r -> all_contexts || untrusted r)
              (Simlog.Log.occurrences log secret)
          in
          match occurrences with
          | [] ->
            Format.printf "Secret 0x%Lx not observed%s in the log.@." secret
              (if all_contexts then "" else " by untrusted contexts")
          | occurrences ->
            List.iter
              (fun (r : Simlog.Log.record) ->
                let where, origin =
                  match r.Simlog.Log.event with
                  | Simlog.Log.Write { structure; origin; _ } ->
                    (Simlog.Structure.to_string structure,
                     Some (Simlog.Log.origin_to_string origin))
                  | Simlog.Log.Snapshot { structure; _ } ->
                    (Simlog.Structure.to_string structure ^ " (residue)", None)
                  | _ -> ("?", None)
                in
                Format.printf "Enclave secret leakage detected!@.";
                Format.printf "Secret value: 0x%Lx@." secret;
                Format.printf "Microarchitecture structure: %s@." where;
                (match origin with
                | Some o -> Format.printf "Access path origin: %s@." o
                | None -> ());
                Format.printf "Sim Cycle No.: %d@." r.Simlog.Log.cycle;
                Format.printf "Observing context: %s@."
                  (Simlog.Exec_context.to_string r.Simlog.Log.ctx);
                (match Simlog.Log.last_commit_before log ~cycle:r.Simlog.Log.cycle with
                | Some pc -> Format.printf "PC of Last Committed Inst.: 0x%Lx@.@." pc
                | None -> Format.printf "@."))
              occurrences)
        secrets
  in
  let logfile =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SIMLOG"
           ~doc:"Saved simulation log (from testcase --save-log).")
  in
  let secrets =
    Arg.(value & opt_all int64 [] & info [ "secret" ] ~docv:"VALUE"
           ~doc:"Secret value to search for (repeatable).")
  in
  let all_contexts =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Report trusted (enclave/monitor) observations too.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print log statistics first.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Search a saved simulation log for secret values.")
    Term.(const run $ logfile $ secrets $ all_contexts $ stats)

(* A checker's input file; an unreadable one is [error: ...], exit 1. *)
let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> fail "%s" e

(* trace-check: offline validation of a merged Chrome trace file.  The
   CI pipeline runs this against the trace submit --trace produced; the
   same checks back the test-suite's hand-rolled parser. *)
let trace_check_cmd =
  let run path quiet =
    let doc =
      match Obs.Json.parse (read_file path) with
      | Ok doc -> doc
      | Error e -> fail "%s: invalid JSON: %s" path e
    in
    let events =
      match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
      | Some evs -> evs
      | None -> fail "%s: no traceEvents array" path
    in
    (* Stack discipline per (pid, tid): every E must close the innermost
       open B of the same name, and no B may stay open. *)
    let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let pids = Hashtbl.create 8 in
    let stack_for key =
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks key s;
        s
    in
    List.iteri
      (fun i ev ->
        let str name = Option.bind (Obs.Json.member name ev) Obs.Json.to_str in
        let num name = Option.bind (Obs.Json.member name ev) Obs.Json.to_number in
        let ph = match str "ph" with Some p -> p | None -> fail "event %d: no ph" i in
        let name = match str "name" with Some n -> n | None -> fail "event %d: no name" i in
        let pid =
          match num "pid" with
          | Some p -> int_of_float p
          | None -> fail "event %d: no pid" i
        in
        let tid =
          match num "tid" with
          | Some t -> int_of_float t
          | None -> fail "event %d: no tid" i
        in
        Hashtbl.replace pids pid ();
        (match ph with
        | "M" -> ()
        | _ when num "ts" = None -> fail "event %d (%s): no ts" i name
        | "B" ->
          let s = stack_for (pid, tid) in
          s := name :: !s
        | "E" -> (
          let s = stack_for (pid, tid) in
          match !s with
          | top :: rest when top = name -> s := rest
          | top :: _ ->
            fail "event %d: E %S does not match open span %S (pid %d tid %d)"
              i name top pid tid
          | [] -> fail "event %d: E %S with no open span (pid %d tid %d)" i name pid tid)
        | "i" -> ()
        | other -> fail "event %d: unknown phase %S" i other))
      events;
    Hashtbl.iter
      (fun (pid, tid) s ->
        match !s with
        | [] -> ()
        | names ->
          fail "unclosed span(s) %s (pid %d tid %d)"
            (String.concat ", " (List.map (Printf.sprintf "%S") names))
            pid tid)
      stacks;
    if not quiet then
      Format.printf "trace OK: %d event(s) across %d process(es)@."
        (List.length events) (Hashtbl.length pids)
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Chrome trace-event JSON file to validate.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace-event JSON file: parseable, every \
          event carries ph/name/pid/tid (and ts), and begin/end spans \
          balance per (pid, tid) track.  Exits nonzero on the first \
          violation.")
    Term.(const run $ path $ quiet)

(* explain: reconstruct the causal chain behind one finding id. *)
let explain_cmd =
  (* Re-encode a decoded event slice as a stream the VCD exporter can
     render — the witness clip around the finding's residue window. *)
  let reencode_events evs =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (e : Wave.Event.t) ->
        Wave.Event.encode buf ~kind:e.Wave.Event.kind
          ~cycle:e.Wave.Event.cycle
          ~structure_id:
            (match e.Wave.Event.structure with
            | Some s -> Wave.Event.structure_to_int s
            | None -> Wave.Event.no_structure)
          ~slot:e.Wave.Event.slot ~domain:e.Wave.Event.domain
          ~value:e.Wave.Event.value)
      evs;
    Buffer.contents buf
  in
  let run finding_id verify emit_vcd =
    match Teesec.Provenance.parse_id finding_id with
    | Error e -> fail "%s" e
    | Ok (core, _case, tcid, _structure) -> (
      match Request.resolve_config ~core ~mitigations:[] with
      | Error e -> fail "%s" e
      | Ok config -> (
        (* The id names the test case by its corpus id; look in the
           representative slice first (the default campaign corpus),
           then the full grid. *)
        let candidates =
          List.filter
            (fun (tc : Teesec.Testcase.t) -> tc.Teesec.Testcase.id = tcid)
            (Teesec.Mitigation_eval.slice () @ Teesec.Fuzzer.corpus ())
        in
        let wave = emit_vcd <> None in
        let matching ?snapshots ~wave (tc : Teesec.Testcase.t) =
          let outcome = Teesec.Runner.run ?snapshots ~wave config tc in
          let findings =
            List.filter
              (fun (f : Teesec.Checker.finding) -> f.Teesec.Checker.case <> None)
              (Teesec.Checker.check outcome.Teesec.Runner.log
                 outcome.Teesec.Runner.tracker)
          in
          let matches =
            List.filter
              (fun (p : Teesec.Provenance.t) ->
                p.Teesec.Provenance.p_id = finding_id)
              (Teesec.Provenance.of_outcome ~config outcome findings)
          in
          (outcome, matches)
        in
        let explain_one tc =
          match matching ~wave tc with
          | _, [] -> None
          | outcome, matches -> Some (tc, outcome, matches)
        in
        match List.find_map explain_one candidates with
        | None ->
          Format.printf
            "no finding %s: the test case does not surface it on a clean \
             run (or the id names an unknown test case)@."
            finding_id;
          exit 1
        | Some (tc, outcome, matches) ->
          if List.length matches > 1 then
            Format.printf
              "%d finding records share this id (one per leaked secret word \
               and detection kind):@.@."
              (List.length matches);
          List.iter
            (fun p -> Format.printf "%a@." Teesec.Provenance.pp_chain p)
            matches;
          (match emit_vcd with
          | None -> ()
          | Some path ->
            (* Clip the wave stream to the finding's window (plus the
               machine-wide context events before it) — the minimal
               witness that still renders meaningfully. *)
            let p = List.hd matches in
            let lo =
              match p.Teesec.Provenance.p_window with
              | Some (a, _) -> a
              | None -> 0
            in
            let hi = p.Teesec.Provenance.p_cycle in
            let q = Wave.Query.of_stream outcome.Teesec.Runner.wave in
            let clip =
              List.filter
                (fun (e : Wave.Event.t) ->
                  let c = e.Wave.Event.cycle in
                  (c >= lo && c <= hi)
                  || c <= hi
                     && (match e.Wave.Event.kind with
                        | Wave.Event.Ctx_switch | Wave.Event.Case_mark -> true
                        | _ -> false))
                (Wave.Query.events q)
            in
            write_wave_file ~path
              [ (p.Teesec.Provenance.p_id, reencode_events clip) ]);
          if verify then begin
            (* Replay through the snapshot engine (the other prefix
               path) and assert the causal chain reproduces exactly. *)
            let snapshots = Teesec.Snapshot.create config in
            let _, replayed = matching ~snapshots ~wave:false tc in
            if
              List.length replayed = List.length matches
              && List.for_all2 Teesec.Provenance.equal matches replayed
            then Format.printf "verify OK: provenance replays exactly@."
            else begin
              Format.printf "verify FAILED: replayed provenance differs@.";
              exit 1
            end
          end))
  in
  let finding_id =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FINDING"
           ~doc:"Finding id, as recorded in campaign/inject/fuzz \
                 provenance: core/case/testcase-id/structure \
                 (e.g. boom/D1/37/line-fill-buffer).")
  in
  let verify =
    Arg.(value & flag & info [ "verify" ]
           ~doc:"Re-run the test case through the snapshot engine and \
                 assert the causal chain replays byte-for-byte; exits \
                 nonzero otherwise.")
  in
  let emit_vcd =
    Arg.(value & opt (some string) None & info [ "emit-vcd" ] ~docv:"FILE"
           ~doc:"Write a minimal VCD witness — the wave events inside \
                 the finding's residue window — to $(docv).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run one finding's test case and print the causal chain \
          behind the verdict: the writing access (gadget, cycle, \
          structure, entry), the surviving-residue window, and the \
          observing check.")
    Term.(const run $ finding_id $ verify $ emit_vcd)

(* vcd-check: strict validation of an exported VCD file. *)
let vcd_check_cmd =
  let run path quiet =
    match Wave.Vcd.validate (read_file path) with
    | Error e ->
      Format.printf "invalid VCD %s: %s@." path e;
      exit 1
    | Ok stats ->
      if not quiet then
        Format.printf
          "VCD OK: %d signal(s), %d value change(s), last timestamp %d%s@."
          stats.Wave.Vcd.signals stats.Wave.Vcd.changes
          stats.Wave.Vcd.last_time
          (if stats.Wave.Vcd.has_timescale then "" else " (no timescale)")
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"VCD file to validate (e.g. one written by campaign \
                 --wave out.vcd or explain --emit-vcd).")
  in
  Cmd.v
    (Cmd.info "vcd-check"
       ~doc:
         "Validate an exported VCD waveform: header shape, declared \
          signals, monotone timestamps, and that every value change \
          references a declared signal.  Exits nonzero on the first \
          violation.")
    Term.(const run $ path $ quiet)
