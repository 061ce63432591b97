(* Inspection: the verification plan, the gadget inventory, single
   test cases, the figure scenarios, the netlist and the static
   tables. *)

open Cmdliner
open Terms

let path_conv =
  let parse s =
    match
      List.find_opt
        (fun p -> String.lowercase_ascii (Teesec.Access_path.to_string p) = String.lowercase_ascii s)
        Teesec.Access_path.all
    with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown access path %S" s))
  in
  let print fmt p = Format.fprintf fmt "%s" (Teesec.Access_path.to_string p) in
  Arg.conv (parse, print)

(* --width: reject anything the gadgets cannot emit, with the valid set
   in the error message (Params.make would also raise, but this fails at
   argument-parsing time with cmdliner's usual reporting). *)
let width_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid width %S (expected an integer)" s))
    | Some w when List.mem w Teesec.Params.valid_widths -> Ok w
    | Some w ->
      Error
        (`Msg
          (Printf.sprintf "invalid width %d: access width must be %s" w
             (String.concat ", " (List.map string_of_int Teesec.Params.valid_widths))))
  in
  Arg.conv (parse, Format.pp_print_int)

(* plan *)
let plan_cmd =
  let run config =
    Format.printf "%a@." Teesec.Plan.pp (Teesec.Plan.build config);
    print_string (Teesec.Tables.table1 ())
  in
  Cmd.v (Cmd.info "plan" ~doc:"Print the verification plan for a core.")
    Term.(const run $ core_arg)

(* gadgets *)
let gadgets_cmd =
  let run () =
    let section title gadgets =
      Format.printf "%s (%d):@." title (List.length gadgets);
      List.iter
        (fun g ->
          Format.printf "  %-28s %s@." (Teesec.Gadget.name g) g.Teesec.Gadget.description)
        gadgets
    in
    section "Setup gadgets" Teesec.Gadget_library.setup_gadgets;
    section "Helper gadgets" Teesec.Gadget_library.helper_gadgets;
    section "Access gadgets" Teesec.Gadget_library.access_gadgets;
    Format.printf "Total test cases in the deterministic corpus: %d@."
      (Teesec.Fuzzer.total_cases ())
  in
  Cmd.v (Cmd.info "gadgets" ~doc:"List the gadget inventory.") Term.(const run $ const ())

(* testcase *)
let testcase_cmd =
  let run config path offset width variant seed verbose save_log dump_asm =
    let params = Teesec.Params.make ~offset ~width ~variant ~seed () in
    let tc = Teesec.Assembler.assemble ~id:0 path ~params in
    Format.printf "%a@.@." Teesec.Testcase.pp tc;
    let outcome = Teesec.Runner.run config tc in
    let findings = Teesec.Checker.check outcome.Teesec.Runner.log outcome.Teesec.Runner.tracker in
    if verbose then Format.printf "%a@." Simlog.Log.pp outcome.Teesec.Runner.log;
    (match save_log with
    | Some path ->
      Simlog.Serialize.save ~path outcome.Teesec.Runner.log;
      Format.printf "Simulation log saved to %s (%d records)@.@." path
        outcome.Teesec.Runner.log_records
    | None -> ());
    if dump_asm then begin
      (* The artifact's generated dummy_entry.S equivalent. *)
      Format.printf "# Generated test-case assembly@.";
      List.iteri
        (fun i (label, prog) ->
          Format.printf "@.# fragment %d (%s)@.%a" i label Riscv.Program.pp prog)
        (Teesec.Env.programs outcome.Teesec.Runner.env);
      Format.printf "@."
    end;
    Teesec.Report.render Format.std_formatter outcome findings
  in
  let offset = Arg.(value & opt int 0 & info [ "offset" ] ~doc:"Byte offset in the secret line.") in
  let width = Arg.(value & opt width_conv 8 & info [ "width" ] ~doc:"Access width (1/2/4/8).") in
  let variant = Arg.(value & opt int 0 & info [ "variant" ] ~doc:"Gadget variant selector.") in
  let seed = Arg.(value & opt int64 0xDEADBEEFL & info [ "seed" ] ~doc:"Secret seed.") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Dump the full simulation log.") in
  let save_log =
    Arg.(value & opt (some string) None & info [ "save-log" ] ~docv:"FILE"
           ~doc:"Write the simulation log to FILE (SimLog.txt format).")
  in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ]
           ~doc:"Print the generated assembly fragments of the test case.")
  in
  let path =
    Arg.(required & pos 0 (some path_conv) None & info [] ~docv:"ACCESS_PATH"
           ~doc:"Access path, e.g. Exp_Acc_Enc_L1.")
  in
  Cmd.v
    (Cmd.info "testcase"
       ~doc:"Assemble, run and check a single parameterised test case.")
    Term.(const run $ core_arg $ path $ offset $ width $ variant $ seed $ verbose $ save_log $ dump_asm)

(* scenario *)
let scenario_cmd =
  let run config name =
    let scenarios = Teesec.Scenarios.all config in
    match name with
    | None ->
      List.iter (fun (_, t) -> Format.printf "%a@." Teesec.Scenarios.pp_trace t) scenarios
    | Some n -> (
      match List.assoc_opt n scenarios with
      | Some t -> Format.printf "%a@." Teesec.Scenarios.pp_trace t
      | None ->
        Format.printf "unknown scenario %S; available: %s@." n
          (String.concat ", " (List.map fst scenarios)))
  in
  let figure_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FIGURE"
           ~doc:"figure2 .. figure7 (default: all).")
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Replay a paper figure as a trace on a core.")
    Term.(const run $ core_arg $ figure_arg)

(* netlist *)
let netlist_cmd =
  let run config verilog =
    let design =
      match config.Uarch.Config.kind with
      | Uarch.Config.Boom -> Netlist.Designs.boom
      | Uarch.Config.Xiangshan -> Netlist.Designs.xiangshan
    in
    if verilog then print_string (Netlist.Verilog_gen.design_to_string design)
    else begin
      Format.printf "Storage elements of %s (%d bits total):@."
        config.Uarch.Config.name
        (Netlist.Memory_pass.total_bits design);
      List.iter
        (fun e -> Format.printf "  %a@." Netlist.Memory_pass.pp_element e)
        (Netlist.Memory_pass.run design)
    end
  in
  let verilog =
    Arg.(value & flag & info [ "verilog" ]
           ~doc:"Emit the Verilog skeleton view instead of the element list.")
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Inspect a core's storage elements or emit its Verilog skeleton.")
    Term.(const run $ core_arg $ verilog)

(* tables *)
let tables_cmd =
  let run () =
    print_string (Teesec.Tables.table1 ());
    print_newline ();
    print_string (Teesec.Tables.table2 ())
  in
  Cmd.v (Cmd.info "tables" ~doc:"Print the static tables (1 and 2).")
    Term.(const run $ const ())
