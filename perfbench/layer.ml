(* Traced calls into the program's layers, shared by the traced passes
   of [table3] and [inject], plus the work counters they accumulate. *)

open Teesec

type counters = {
  mutable units : int;
  mutable cycles : int;  (** Simulated cycles, restored prefixes included. *)
  mutable access_cycles : int;  (** Cycles simulated after the fork point. *)
  mutable records : int;
  mutable writes : int;
  mutable snapshot_records : int;
}

let counters () =
  { units = 0; cycles = 0; access_cycles = 0; records = 0; writes = 0; snapshot_records = 0 }

(* [Runner.run], split at its [~prepare] hook into a set-up span (entry
   to the fork point) and an access span (fork point to return). *)
let runner ?snapshots ?(prepare = ignore) config tc =
  let t_fork = ref nan in
  let t0 = Util.now () in
  let outcome =
    Runner.run ?snapshots
      ~prepare:(fun env ->
        t_fork := Util.now ();
        prepare env)
      config tc
  in
  let t1 = Util.now () in
  Span.add "teesec.runner.setup" ~t0 ~t1:!t_fork;
  Span.add "teesec.runner.access" ~t0:!t_fork ~t1;
  outcome

let check (outcome : Runner.outcome) =
  Span.with_ "teesec.checker.check" (fun () ->
      Checker.check outcome.Runner.log outcome.Runner.tracker)

let provenance config outcome findings =
  Span.with_ "teesec.provenance.of_outcome" (fun () ->
      Provenance.of_outcome ~config outcome
        (List.filter (fun f -> f.Checker.case <> None) findings))

(* [Stats.of_log] for the simlog counts; the untraced pass does not
   call it, so it is part of the tracing overhead. *)
let count c (outcome : Runner.outcome) =
  let st = Span.with_ "simlog.stats.of_log" (fun () -> Simlog.Stats.of_log outcome.Runner.log) in
  c.cycles <- c.cycles + outcome.Runner.cycles;
  c.access_cycles <- c.access_cycles + outcome.Runner.cycles - outcome.Runner.fork_cycle;
  c.records <- c.records + st.Simlog.Stats.records;
  c.writes <- c.writes + st.Simlog.Stats.writes;
  c.snapshot_records <- c.snapshot_records + st.Simlog.Stats.snapshots;
  st

let snapshot_ratios (stats : Snapshot.stats list) =
  let sum f = float_of_int (List.fold_left (fun n s -> n + f s) 0 stats) in
  let hits = sum (fun s -> s.Snapshot.hits) and misses = sum (fun s -> s.Snapshot.misses) in
  let restored = sum (fun s -> s.Snapshot.restored_gadgets) in
  let replayed = sum (fun s -> s.Snapshot.replayed_gadgets) in
  [
    ("teesec.snapshot.hit_ratio", Util.ratio hits (hits +. misses));
    ("teesec.snapshot.restored_gadget_ratio", Util.ratio restored (restored +. replayed));
  ]

let add_counters c d =
  c.units <- c.units + d.units;
  c.cycles <- c.cycles + d.cycles;
  c.access_cycles <- c.access_cycles + d.access_cycles;
  c.records <- c.records + d.records;
  c.writes <- c.writes + d.writes;
  c.snapshot_records <- c.snapshot_records + d.snapshot_records

(* The runner/checker/simlog figures every traced simulation pass
   reports. *)
let metrics tbl c =
  let f = float_of_int in
  let per_unit n = Util.ratio (f n) (f c.units) in
  [
    ("teesec.runner.setup_us", Span.mean_self tbl "teesec.runner.setup");
    ("teesec.runner.access_us", Span.mean_self tbl "teesec.runner.access");
    ("teesec.checker.check_us", Span.mean_self tbl "teesec.checker.check");
    ( "teesec.checker.ns_per_record",
      Util.ratio (Span.self_s tbl "teesec.checker.check" *. 1e9) (f c.records) );
    ("teesec.provenance.of_outcome_us", Span.mean_self tbl "teesec.provenance.of_outcome");
    ("uarch.sim_cycles_per_unit", per_unit c.cycles);
    ( "uarch.host_ns_per_sim_cycle",
      Util.ratio (Span.self_s tbl "teesec.runner.access" *. 1e9) (f c.access_cycles) );
    ("simlog.records_per_unit", per_unit c.records);
    ("simlog.writes_per_unit", per_unit c.writes);
    ("simlog.snapshot_records_per_unit", per_unit c.snapshot_records);
  ]
