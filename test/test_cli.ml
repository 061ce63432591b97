(* Smoke tests for the command tree (lib/cli).

   The binary is a one-liner over [Cli.Teesec_cmds], so evaluating the
   library's command tree against a synthetic argv exercises exactly
   what ships: every subcommand accepts [--help] and exits 0, and an
   unknown flag reports the subcommand's usage instead of raising. *)

module Cmds = Cli.Teesec_cmds

let contains ~needle haystack =
  Teesec.Strutil.contains_substring ~needle haystack

let test_command_list () =
  Alcotest.(check bool) "fuzz is a subcommand" true
    (List.mem "fuzz" Cmds.command_names);
  Alcotest.(check bool) "corpus-min is a subcommand" true
    (List.mem "corpus-min" Cmds.command_names);
  Alcotest.(check bool) "at least a dozen subcommands" true
    (List.length Cmds.command_names >= 12)

let test_top_level_help () =
  let code, out = Cmds.eval_captured ~argv:[| "teesec_cli"; "--help" |] in
  Alcotest.(check int) "--help exits 0" 0 code;
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "top-level help lists %s" name)
        true (contains ~needle:name out))
    Cmds.command_names

let test_every_subcommand_help () =
  List.iter
    (fun name ->
      let code, out =
        Cmds.eval_captured ~argv:[| "teesec_cli"; name; "--help" |]
      in
      Alcotest.(check int) (Printf.sprintf "%s --help exits 0" name) 0 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s --help mentions the subcommand" name)
        true (contains ~needle:name out))
    Cmds.command_names

let test_unknown_flag_prints_usage () =
  List.iter
    (fun name ->
      let code, out =
        Cmds.eval_captured
          ~argv:[| "teesec_cli"; name; "--definitely-not-a-flag" |]
      in
      Alcotest.(check int)
        (Printf.sprintf "%s rejects unknown flag with a CLI error" name)
        124 code;
      Alcotest.(check bool)
        (Printf.sprintf "%s unknown-flag message names the flag" name)
        true
        (contains ~needle:"definitely-not-a-flag" out);
      Alcotest.(check bool)
        (Printf.sprintf "%s unknown-flag message shows its usage" name)
        true
        (contains ~needle:("teesec_cli " ^ name) out))
    Cmds.command_names

let test_unknown_subcommand () =
  let code, out =
    Cmds.eval_captured ~argv:[| "teesec_cli"; "no-such-command" |]
  in
  Alcotest.(check int) "unknown subcommand is a CLI error" 124 code;
  Alcotest.(check bool) "message names the bogus command" true
    (contains ~needle:"no-such-command" out)

let test_fuzz_rejects_bad_energy () =
  let code, out =
    Cmds.eval_captured ~argv:[| "teesec_cli"; "fuzz"; "--energy"; "250" |]
  in
  Alcotest.(check int) "energy out of range is a CLI error" 124 code;
  Alcotest.(check bool) "message explains the range" true
    (contains ~needle:"0" out)

(* Out-of-range run parameters are command-line errors, identically for
   the one-shot subcommand and for `submit`, which share the terms; the
   bodies never run, so no daemon is needed. *)
let test_out_of_range_rejected () =
  List.iter
    (fun (kind, flag) ->
      List.iter
        (fun argv ->
          let code, _ = Cmds.eval_captured ~argv:(Array.of_list ("teesec_cli" :: argv)) in
          Alcotest.(check int) (String.concat " " argv ^ " exits 124") 124 code)
        [ [ kind; flag ]; [ "submit"; "--kind"; kind; flag ] ])
    [
      ("inject", "--faults=-1");
      ("fuzz", "--budget=-1");
      ("fuzz", "--batch=0");
      ("fuzz", "--energy=-1");
      ("fuzz", "--energy=150");
      ("campaign", "--mitigation=prayer");
      ("campaign", "--random=0");
      ("campaign", "--random=-3");
    ];
  let code, _ =
    Cmds.eval_captured ~argv:[| "teesec_cli"; "symex"; "--max-paths=0" |]
  in
  Alcotest.(check int) "symex --max-paths=0 exits 124" 124 code

(* A missing input file is a reported error (exit 1), not an uncaught
   exception (125).  The error path exits, so run it in a child. *)
let test_missing_file_is_an_error () =
  List.iter
    (fun checker ->
      match Unix.fork () with
      | 0 ->
        let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 null Unix.stdout;
        Unix.dup2 null Unix.stderr;
        exit
          (fst
             (Cmds.eval_captured
                ~argv:[| "teesec_cli"; checker; "/nonexistent/input" |]))
      | pid -> (
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED code ->
          Alcotest.(check int) (checker ^ " on a missing file exits 1") 1 code
        | _ -> Alcotest.failf "%s was killed" checker))
    [ "vcd-check"; "trace-check" ]

(* The `version` subcommand prints Serve.Protocol.version_string, and
   scripts parse it to pick a matching client — pin the format here. *)
let test_version_string () =
  Alcotest.(check bool) "version is a subcommand" true
    (List.mem "version" Cmds.command_names);
  let v = Serve.Protocol.version_string in
  Alcotest.(check string) "version string format"
    (Printf.sprintf "teesec %s (protocol %d)" Serve.Protocol.build_version
       Serve.Protocol.protocol_version)
    v

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "command list" `Quick test_command_list;
          Alcotest.test_case "top-level --help" `Quick test_top_level_help;
          Alcotest.test_case "every subcommand --help exits 0" `Quick
            test_every_subcommand_help;
          Alcotest.test_case "unknown flag prints subcommand usage" `Quick
            test_unknown_flag_prints_usage;
          Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
          Alcotest.test_case "fuzz validates --energy" `Quick
            test_fuzz_rejects_bad_energy;
          Alcotest.test_case "out-of-range values rejected by one-shot and submit"
            `Quick test_out_of_range_rejected;
          Alcotest.test_case "checkers report a missing file" `Quick
            test_missing_file_is_an_error;
          Alcotest.test_case "version string format" `Quick
            test_version_string;
        ] );
    ]
