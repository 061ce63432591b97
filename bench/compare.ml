(* Bench regression gate: diff a fresh bench run against the checked-in
   BENCH_*.json baselines and fail (exit 1) when an *enforced* series'
   throughput regressed by more than the threshold.

   Usage: compare --baseline DIR --fresh DIR [--threshold PCT]

   Every metric compared here is higher-is-better (cases/s, units/s,
   shards/s), so a regression is fresh < baseline * (1 - threshold).
   Files missing on either side are reported and skipped rather than
   failed: the serve record, for instance, predates some baselines, and
   CI machines differ in which phases they run.

   Two tiers.  The campaign and snapshot records gate CI: they are the
   paper-reproduction path and the engine the whole harness stands on,
   their workloads are large enough to average out runner jitter, and
   the 20% default threshold is far beyond machine variance on them.
   Everything else is advisory — printed as WARN, never fatal — because
   those phases are short enough that machine-to-machine variance alone
   can cross the threshold. *)

module Json = Obs.Json

type series = {
  file : string;  (* BENCH_*.json basename *)
  entries : string;  (* field holding the list of records *)
  key : string list;  (* fields identifying a record within the list *)
  metric : string;  (* higher-is-better throughput field *)
  enforcing : bool;  (* regression here fails the run; else warn-only *)
}

let catalogue =
  [
    {
      file = "BENCH_campaign.json";
      entries = "campaigns";
      key = [ "core" ];
      metric = "cases_per_s";
      enforcing = true;
    };
    {
      file = "BENCH_inject.json";
      entries = "campaigns";
      key = [ "core" ];
      metric = "cases_per_s";
      enforcing = false;
    };
    {
      file = "BENCH_fuzz.json";
      entries = "campaigns";
      key = [ "core"; "mode" ];
      metric = "cases_per_s";
      enforcing = false;
    };
    {
      file = "BENCH_snapshot.json";
      entries = "phases";
      key = [ "phase" ];
      metric = "snapshot_units_per_s";
      enforcing = true;
    };
    {
      file = "BENCH_serve.json";
      entries = "phases";
      key = [ "workers" ];
      metric = "cold_shards_per_s";
      enforcing = false;
    };
    {
      file = "BENCH_symex.json";
      entries = "phases";
      key = [ "phase" ];
      metric = "paths_per_s";
      enforcing = false;
    };
    {
      file = "BENCH_wave.json";
      entries = "phases";
      key = [ "phase" ];
      metric = "on_units_per_s";
      enforcing = false;
    };
  ]

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* A key field may be a string or a number (serve keys on the integer
   worker count); render both to one comparable string. *)
let field_to_string v =
  match v with
  | Json.Str s -> Some s
  | Json.Int i -> Some (string_of_int i)
  | Json.Num n -> Some (Printf.sprintf "%g" n)
  | Json.Bool b -> Some (string_of_bool b)
  | _ -> None

let record_key spec record =
  let parts =
    List.map
      (fun field ->
        match Option.bind (Json.member field record) field_to_string with
        | Some s -> s
        | None -> "?")
      spec.key
  in
  String.concat "/" parts

let load_entries spec dir =
  let path = Filename.concat dir spec.file in
  match read_file path with
  | None -> Error (Printf.sprintf "%s: missing" path)
  | Some contents -> (
    match Json.parse contents with
    | Error e -> Error (Printf.sprintf "%s: invalid JSON: %s" path e)
    | Ok doc -> (
      match Option.bind (Json.member spec.entries doc) Json.to_list with
      | None -> Error (Printf.sprintf "%s: no %S array" path spec.entries)
      | Some records ->
        Ok
          (List.filter_map
             (fun r ->
               match
                 Option.bind (Json.member spec.metric r) Json.to_number
               with
               | Some m -> Some (record_key spec r, m)
               | None -> None)
             records)))

let () =
  let baseline = ref "" in
  let fresh = ref "" in
  let threshold = ref 20.0 in
  let spec_list =
    [
      ("--baseline", Arg.Set_string baseline, "DIR  Checked-in BENCH_*.json");
      ("--fresh", Arg.Set_string fresh, "DIR  Freshly produced BENCH_*.json");
      ( "--threshold",
        Arg.Set_float threshold,
        "PCT  Allowed regression in percent (default 20)" );
    ]
  in
  let usage = "compare --baseline DIR --fresh DIR [--threshold PCT]" in
  Arg.parse spec_list (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !baseline = "" || !fresh = "" then begin
    prerr_endline usage;
    exit 2
  end;
  let failures = ref 0 in
  let warnings = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun spec ->
      match (load_entries spec !baseline, load_entries spec !fresh) with
      | Error e, _ | _, Error e -> Printf.printf "skip %s (%s)\n" spec.file e
      | Ok base, Ok new_ ->
        List.iter
          (fun (key, b) ->
            match List.assoc_opt key new_ with
            | None ->
              Printf.printf "skip %s %s (absent from fresh run)\n" spec.file key
            | Some f ->
              incr compared;
              let delta_pct =
                if b = 0. then 0. else (f -. b) /. b *. 100.
              in
              let regressed = delta_pct < -. !threshold in
              let tag =
                if not regressed then "ok"
                else if spec.enforcing then begin
                  incr failures;
                  "REGRESSION"
                end
                else begin
                  incr warnings;
                  "WARN"
                end
              in
              Printf.printf "%s %s %s: %.1f -> %.1f %s (%+.1f%%)\n" tag
                spec.file key b f spec.metric delta_pct)
          base)
    catalogue;
  Printf.printf
    "%d metric(s) compared, %d enforced regression(s) and %d advisory \
     warning(s) beyond %.0f%%\n"
    !compared !failures !warnings !threshold;
  if !failures > 0 then exit 1
