(* TEESec command-line interface.

   Mirrors the artifact workflow: inspect the verification plan and the
   gadget inventory, run single parameterised test cases (the
   TestGadgetConstructor + Checker flow), run full campaigns (Table 3),
   drive the coverage-guided fuzzing engine, evaluate mitigations
   (Table 4), and replay the figure scenarios.

   This lives in a library (rather than bin/) so the test suite can
   evaluate the command tree against a synthetic argv: every subcommand
   must accept --help with exit code 0 and answer unknown flags with its
   usage, and the smoke tests pin exactly that. *)

open Cmdliner

let subcommands =
  [
    Inspect_cmds.plan_cmd;
    Inspect_cmds.gadgets_cmd;
    Inspect_cmds.testcase_cmd;
    Evidence_cmds.check_cmd;
    Run_cmds.campaign_cmd;
    Run_cmds.fuzz_cmd;
    Run_cmds.corpus_min_cmd;
    Run_cmds.symex_cmd;
    Run_cmds.inject_cmd;
    Run_cmds.mitigations_cmd;
    Run_cmds.profile_cmd;
    Run_cmds.coverage_cmd;
    Inspect_cmds.netlist_cmd;
    Run_cmds.report_cmd;
    Inspect_cmds.scenario_cmd;
    Inspect_cmds.tables_cmd;
    Service_cmds.version_cmd;
    Service_cmds.serve_cmd;
    Service_cmds.submit_cmd;
    Service_cmds.status_cmd;
    Service_cmds.results_cmd;
    Service_cmds.watch_cmd;
    Evidence_cmds.trace_check_cmd;
    Evidence_cmds.explain_cmd;
    Evidence_cmds.vcd_check_cmd;
    Service_cmds.shutdown_cmd;
  ]

let command_names = List.map Cmd.name subcommands

let cmd =
  let doc = "TEESec: pre-silicon vulnerability discovery for trusted execution environments" in
  let info = Cmd.info "teesec_cli" ~version:Serve.Protocol.build_version ~doc in
  Cmd.group info subcommands

let eval ?argv () =
  match argv with Some argv -> Cmd.eval ~argv cmd | None -> Cmd.eval cmd

(* For the smoke tests: evaluate with help/usage/error output captured
   instead of written to the process channels.  The subcommand bodies
   themselves still print to stdout, but --help and CLI errors never
   reach a body.  A bare [--help] is rewritten to [--help=plain]: under
   auto format cmdliner may hand the page to a pager on the real stdout,
   which would bypass the capture formatter. *)
let eval_captured ~argv =
  let argv =
    Array.map (fun a -> if a = "--help" then "--help=plain" else a) argv
  in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let status = Cmd.eval ~help:fmt ~err:fmt ~argv cmd in
  Format.pp_print_flush fmt ();
  (status, Buffer.contents buf)
