(* The campaign service (lib/serve), measured in every traced run: a
   daemon with [workers ()] worker processes and one client on one
   connection.  An iteration starts a daemon on an empty store and
   submits the full corpus once per core (cold: every shard executes and
   is written to the store), then [restarts] times restarts the daemon
   on that store and resubmits one core's corpus (warm: every shard is
   read back from the store, nothing executes).  Only the first
   submission after a restart reads the store — the daemon answers a
   repeat from its job table — so each restart carries exactly one warm
   job.

   It is not a gated workload: with three processes busy on a two-vCPU
   box, its wall times swung 20-50% from run to run under neighbour
   load while the single-process workloads held within 5-20%. *)

open Serve

(* At most [nproc] workers, and two where there are more cores. *)
let workers () = max 1 (min 2 (Domain.recommended_domain_count ()))

let restarts = 8
let dir = Filename.concat Util.out_dir "serve"
let socket_path = Filename.concat dir "d.sock"
let spec config = Request.Campaign { core = Util.core_name config; mitigations = []; corpus = Request.Full }
let fail fmt = Printf.ksprintf failwith fmt
let ok_or what = function Ok x -> x | Error e -> fail "%s: %s" what e

(* A daemon in its own session, so a failed iteration can stop it and
   its workers together. *)
type daemon = { pid : int; client : Client.t; mutable alive : bool }

let start ~store_root =
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let cfg = { (Daemon.default_config ~socket_path ~store_root) with Daemon.workers = workers () } in
  flush_all ();
  let pid =
    Span.with_ "serve.daemon.start" (fun () ->
        match Unix.fork () with
        | 0 ->
          ignore (Unix.setsid ());
          (try Daemon.run cfg with _ -> ());
          Unix._exit 0
        | pid -> pid)
  in
  let client =
    match
      Span.with_ "serve.connect" (fun () ->
          Client.connect_retry ~attempts:5000 ~delay:0.001 ~socket_path ())
    with
    | Ok c -> c
    | Error e ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      fail "connect: %s" e
  in
  { pid; client; alive = true }

let stop d =
  if d.alive then begin
    d.alive <- false;
    Span.with_ "serve.shutdown" (fun () ->
        (match Client.shutdown d.client with
        | Ok () -> ()
        | Error _ -> ( try Unix.kill (-d.pid) Sys.sigkill with Unix.Unix_error _ -> ()));
        Client.close d.client;
        ignore (Unix.waitpid [] d.pid))
  end

let kill d =
  if d.alive then begin
    d.alive <- false;
    (try Unix.kill (-d.pid) Sys.sigkill with Unix.Unix_error _ -> ());
    Client.close d.client;
    ignore (Unix.waitpid [] d.pid)
  end

let with_daemon ~store_root f =
  let d = start ~store_root in
  match f d with
  | r -> stop d; r
  | exception e -> kill d; raise e

(* Submit and wait for the artifact: (job status, artifact).  Cold
   jobs' spans carry a [.cold] suffix, so the submit and results figures
   are the service's own cost on warm jobs, not the workers' simulation
   time. *)
let job ?(phase = "") d config =
  let js =
    ok_or "submit"
      (Span.with_ ("serve.submit" ^ phase) (fun () -> Client.submit d.client (spec config)))
  in
  match
    ok_or "results"
      (Span.with_ ("serve.results" ^ phase) (fun () -> Client.results d.client js.Protocol.js_job))
  with
  | Ok art -> (js, art.Client.data)
  | Error _ -> fail "job %s never completed" js.Protocol.js_job

let cases = List.length (Teesec.Fuzzer.corpus ()) * List.length Util.configs

type results = {
  cold : (string * string) list;  (** Core name, cold artifact. *)
  warm_hits : int * int;  (** Store hits, shards. *)
  warm_ok : bool;  (** Every warm artifact equals its cold one. *)
  wall_s : float;
}

let iteration i =
  let t0 = Util.now () in
  let store_root = Filename.concat dir (Printf.sprintf "store-%d" i) in
  Util.rm_rf store_root;
  let cold =
    with_daemon ~store_root (fun d ->
        List.map
          (fun config -> (Util.core_name config, snd (job ~phase:".cold" d config)))
          Util.configs)
  in
  let hits = ref 0 and shards = ref 0 and warm_ok = ref true in
  for k = 0 to restarts - 1 do
    let config = List.nth Util.configs (k mod List.length Util.configs) in
    with_daemon ~store_root (fun d ->
        let js, data = job d config in
        hits := !hits + js.Protocol.js_hits;
        shards := !shards + js.Protocol.js_total;
        if List.assoc_opt (Util.core_name config) cold <> Some data then warm_ok := false)
  done;
  Util.rm_rf store_root;
  { cold; warm_hits = (!hits, !shards); warm_ok = !warm_ok; wall_s = Util.now () -. t0 }

(* The one-shot CLI result the service must reproduce byte for byte,
   computed in a forked process after the iterations. *)
let one_shot () =
  let corpus = Teesec.Fuzzer.corpus () in
  List.map
    (fun config ->
      ( Util.core_name config,
        Teesec.Tables.table3_csv
          [
            Teesec.Campaign.run ~jobs:1 ~snapshots:(Teesec.Snapshot.create config) config corpus;
          ] ))
    Util.configs

let sound reference r = Some r.cold = reference && r.warm_ok && fst r.warm_hits = snd r.warm_hits

(* One untraced and one traced iteration, then the one-shot reference. *)
let iterations () =
  Util.mkdir_p dir;
  let once i = try Some (iteration i) with e -> Util.report_exn "serve iteration" e; None in
  let plain = once 1 in
  Span.on := true;
  let traced = Span.with_ "bench.job" (fun () -> once 2) in
  Span.on := false;
  Util.rm_rf dir;
  (plain, traced, Util.child one_shot)

(* The lib/serve figures of every traced run. *)
let probe () =
  Span.start ();
  Span.on := false;
  let plain, traced, reference = iterations () in
  let tbl = Span.table () in
  let hits, shards = match traced with Some r -> r.warm_hits | None -> (0, 0) in
  let agree =
    match (plain, traced) with
    | Some a, Some b -> a.cold = b.cold && a.warm_ok = b.warm_ok
    | _ -> false
  in
  let failed =
    List.length (List.filter (function Some r -> not (sound reference r) | None -> true) [ plain; traced ])
  in
  let wall = function Some r -> [ r.wall_s ] | None -> [] in
  {
    Util.layers =
      [
        ("serve.connect_ms", Span.mean_self ~scale:1e3 tbl "serve.connect");
        ("serve.submit_ms", Span.mean_self ~scale:1e3 tbl "serve.submit");
        ("serve.results_ms", Span.mean_self ~scale:1e3 tbl "serve.results");
        ("serve.warm_hit_ratio", Util.ratio (float_of_int hits) (float_of_int shards));
      ];
    agree;
    untraced_s = wall plain;
    traced_s = wall traced;
    t_attempted = 2 * cases;
    t_failed = failed * cases;
  }
