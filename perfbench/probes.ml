(* Micro-probes: single public operations of the simulator, the log and
   the service, timed in batches on an established environment (the
   first grid case's set-up prefix, on BOOM).  Each figure is the median
   over [batches] of (batch time / operations in the batch); state is
   rebuilt outside the timed part of every batch. *)

open Teesec

let batches = 15

let per_op ?(scale = 1e9) ~n prepare =
  Util.median
    (List.init batches (fun _ ->
         let work = prepare () in
         let t0 = Util.now () in
         work ();
         (Util.now () -. t0) *. scale /. float_of_int n))

let config = Uarch.Config.boom

let established () =
  let tc = List.hd (Fuzzer.corpus ()) in
  let env = Snapshot.establish (Snapshot.create config) tc in
  (tc, env, Env.snapshot env)

let fresh_env (tc, _, snap) =
  let env = Env.create config tc.Testcase.params in
  Env.restore env snap;
  env

let machine_probes base =
  let _, env0, _ = base in
  let addr i = Int64.add (Env.host_secret_addr env0) (Int64.of_int (8 * (i land 511))) in
  let ops = 4096 in
  let on_fresh_machine op () =
    let m = (fresh_env base).Env.machine in
    fun () ->
      for i = 0 to ops - 1 do
        op m i
      done
  in
  let store m i =
    ignore (Uarch.Machine.store m ~vaddr:(addr i) ~size:8 ~value:(Int64.of_int i) ())
  in
  let load m i = ignore (Uarch.Machine.load m ~vaddr:(addr i) ~size:8 ()) in
  let region = Tee.Memory_layout.enclave_base (Env.victim_exn env0) in
  let msnap = Uarch.Machine.snapshot env0.Env.machine in
  let copies = 16 in
  [
    ("uarch.machine.store_ns", per_op ~n:ops (on_fresh_machine store));
    ("uarch.machine.load_ns", per_op ~n:ops (on_fresh_machine load));
    ( "uarch.machine.advance_ns",
      per_op ~n:ops (on_fresh_machine (fun m _ -> Uarch.Machine.advance m 1)) );
    ( "uarch.machine.memset_region_us",
      per_op ~scale:1e6 ~n:1 (fun () ->
          let m = (fresh_env base).Env.machine in
          fun () ->
            Uarch.Machine.memset_region m ~origin:Simlog.Log.Memset_destroy ~addr:region ~size:65536L
              ~value:0L) );
    ( "uarch.machine.restore_us",
      per_op ~scale:1e6 ~n:copies (fun () ->
          let ms = List.init copies (fun _ -> Uarch.Machine.create config) in
          fun () -> List.iter (fun m -> Uarch.Machine.restore m msnap) ms) );
    ( "teesec.env.restore_us",
      per_op ~scale:1e6 ~n:copies (fun () ->
          let tc, _, snap = base in
          let envs = List.init copies (fun _ -> Env.create config tc.Testcase.params) in
          fun () -> List.iter (fun e -> Env.restore e snap) envs) );
  ]

let csr_probe () =
  let ops = 100_000 in
  let idx = List.hd Riscv.Csr.modelled_counters in
  per_op ~n:ops (fun () ->
      let csr = Riscv.Csr.create () in
      fun () ->
        for _ = 1 to ops do
          Riscv.Csr.bump_counter csr idx ~by:1L
        done)

let log_probes () =
  let ops = 20_000 in
  let ctx = Simlog.Exec_context.Host Riscv.Priv.Supervisor in
  let structure = List.hd Simlog.Structure.all in
  let record log i =
    Simlog.Log.record log ~cycle:i ~ctx
      (Simlog.Log.Write
         { structure; entries = [ Simlog.Log.entry (Int64.of_int i) ]; origin = Simlog.Log.Explicit_store })
  in
  let words = ref [] in
  let ns =
    per_op ~n:ops (fun () ->
        let log = Simlog.Log.create () in
        fun () ->
          let w0 = Gc.minor_words () in
          for i = 1 to ops do
            record log i
          done;
          words := ((Gc.minor_words () -. w0) /. float_of_int ops) :: !words)
  in
  [ ("simlog.log.record_ns", ns); ("simlog.minor_words_per_record", Util.median !words) ]

let assembler_probe () =
  let grid = List.concat_map (fun p -> List.map (fun params -> (p, params)) (Fuzzer.grid p)) Access_path.all in
  per_op ~scale:1e6 ~n:(List.length grid) (fun () () ->
      List.iteri (fun id (p, params) -> ignore (Assembler.assemble ~id p ~params)) grid)

(* The store and codec carry one shard's worth of campaign outcomes: the
   slice's cases on BOOM, as a worker would ship them. *)
let serve_probes () =
  let outcomes = List.map (Campaign.eval_case config) (Mitigation_eval.slice ()) in
  let payload = Serve.Executor.encode_campaign_outcomes outcomes in
  let root = Filename.concat Util.out_dir "probe-store" in
  Util.rm_rf root;
  let store = Serve.Store.open_ ~root in
  let objects = 32 in
  let digest i = Serve.Store.digest_of_fields [ ("probe", string_of_int i) ] in
  let put () () =
    for i = 1 to objects do
      Serve.Store.put store Serve.Store.Verdicts ~digest:(digest i) payload
    done
  in
  let put_us = per_op ~scale:1e6 ~n:objects put in
  let get_us =
    per_op ~scale:1e6 ~n:objects (fun () () ->
        for i = 1 to objects do
          if Serve.Store.get store Serve.Store.Verdicts ~digest:(digest i) <> Some payload then
            failwith "probe store returned another payload"
        done)
  in
  Util.rm_rf root;
  let trips = 8 in
  let roundtrip_us =
    per_op ~scale:1e6 ~n:trips (fun () () ->
        for _ = 1 to trips do
          let back =
            Serve.Executor.decode_campaign_outcomes (Serve.Executor.encode_campaign_outcomes outcomes)
          in
          if List.length back <> List.length outcomes then failwith "codec lost outcomes"
        done)
  in
  [
    ("serve.store.put_us", put_us);
    ("serve.store.get_us", get_us);
    ("serve.codec.roundtrip_us", roundtrip_us);
  ]

let run () =
  let base = established () in
  machine_probes base
  @ [ ("riscv.csr.bump_counter_ns", csr_probe ()) ]
  @ log_probes ()
  @ [ ("teesec.assembler.assemble_us", assembler_probe ()) ]
  @ serve_probes ()
