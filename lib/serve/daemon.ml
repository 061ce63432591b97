type config = {
  socket_path : string;
  store_root : string;
  workers : int;
  http_port : int option;
  max_shard_cases : int;
  max_retries : int;
  test_crash_assignments : int;
  slog : Obs.Log.t;
}

let default_config ~socket_path ~store_root =
  {
    socket_path;
    store_root;
    workers = 1;
    http_port = None;
    max_shard_cases = Planner.default_max_shard_cases;
    max_retries = 3;
    test_crash_assignments = 0;
    slog = Obs.Log.null;
  }

(* Retry delay after a worker death: 50 ms doubling per failed attempt,
   capped at one second. *)
let backoff_base = 0.05
let backoff_cap = 1.0

(* {2 Daemon state} *)

type shard_state =
  | S_queued
  | S_running of int  (* worker slot *)
  | S_backoff of float  (* eligible at (monotonic-ish Unix time) *)
  | S_done
  | S_poisoned

type shard_rec = {
  shard : Planner.shard;
  mutable state : shard_state;
  mutable attempts : int;  (* assignments made so far *)
  mutable payload : string option;
  mutable wave_blob : string;
      (* The shard's framed wave streams, from the worker's side
         channel; [""] for store-satisfied shards (the store never
         holds waves) and when the job didn't ask for waves. *)
  mutable enqueued_ns : int64;  (* daemon clock at (re)queueing *)
  mutable assigned_ns : int64;  (* daemon clock at last assignment *)
}

type job = {
  j_id : string;
  j_spec : Request.spec;
  j_shards : shard_rec array;
  j_hits : int;  (* shards satisfied from the store at submit time *)
  j_trace : bool;  (* collect a merged cross-process trace *)
  j_wave : bool;  (* run shards with wave taps; collect the streams *)
  mutable j_artifact : string option;
  mutable j_failed : string option;
  mutable j_waiters : Unix.file_descr list;
  (* Trace state, populated only when [j_trace]: daemon-side instant
     events (reverse order) and each worker's clock-aligned span
     buffers, keyed by worker pid. *)
  mutable j_events : Obs.Tracer.event list;
  j_worker_events : (int, Obs.Tracer.event list ref) Hashtbl.t;
  mutable j_trace_json : string option;
  mutable j_wave_blob : string option;
      (* Per-shard wave blobs concatenated in shard order once the job
         completes — concatenation of framed streams is itself a valid
         framed stream, so the artifact's wave payload decodes with one
         [Wave.Event.unframe]. *)
}

type worker = {
  w_slot : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr;
  mutable w_task : (job * int) option;  (* job, shard index *)
  mutable w_idle : bool;  (* announced W_ready and has no task *)
}

type client = { c_fd : Unix.file_descr; mutable c_hello : bool }

type instruments = {
  i_submits : Obs.Metrics.counter;
  i_hits : Obs.Metrics.counter;
  i_misses : Obs.Metrics.counter;
  i_executed : Obs.Metrics.counter;
  i_restarts : Obs.Metrics.counter;
  i_poisoned : Obs.Metrics.counter;
  i_artifacts : Obs.Metrics.counter;
  i_http : Obs.Metrics.counter;
  i_workers : Obs.Metrics.gauge;
  i_jobs : Obs.Metrics.gauge;
}

let make_instruments m =
  let c name help = Obs.Metrics.counter m ~help name in
  {
    i_submits = c "teesec_serve_submits_total" "Requests submitted.";
    i_hits =
      c "teesec_serve_store_hits_total"
        "Shards satisfied from the persistent store.";
    i_misses =
      c "teesec_serve_store_misses_total" "Shards queued for execution.";
    i_executed =
      c "teesec_serve_shards_executed_total" "Shards executed by workers.";
    i_restarts =
      c "teesec_serve_worker_restarts_total" "Worker processes respawned.";
    i_poisoned =
      c "teesec_serve_shards_poisoned_total"
        "Shards abandoned after exhausting retries.";
    i_artifacts =
      c "teesec_serve_artifacts_total" "Artifacts assembled and cached.";
    i_http = c "teesec_serve_http_requests_total" "Metrics-endpoint hits.";
    i_workers =
      Obs.Metrics.gauge m ~help:"Live worker processes."
        "teesec_serve_workers";
    i_jobs =
      Obs.Metrics.gauge m ~help:"Jobs known to the daemon."
        "teesec_serve_jobs";
  }

type t = {
  cfg : config;
  store : Store.t;
  metrics : Obs.Metrics.t;
  clock : Obs.Clock.t;
  ins : instruments;
  listen_fd : Unix.file_descr;
  http_fd : Unix.file_descr option;
  mutable pool : worker array;
  mutable clients : client list;
  jobs : (string, job) Hashtbl.t;
  mutable job_order : string list;  (* reverse submission order *)
  queue : (job * int) Queue.t;  (* ready shards, dispatch order *)
  mutable backoffs : (job * int) list;
  mutable crash_budget : int;
  mutable running : bool;
}

let now_ns t = t.clock ()
let ns_to_s ns = Int64.to_float ns /. 1e9

(* On-demand labelled histograms.  Registration is idempotent, so
   looking the series up at every observation is cheap and keeps the
   label sets open — one series per request family and per worker slot
   appears as the corresponding traffic does. *)
let observe_hist t name ~help ~labels v =
  Obs.Metrics.observe (Obs.Metrics.histogram t.metrics ~labels ~help name) v

let observe_queue_wait t ~family v =
  observe_hist t "teesec_serve_queue_wait_seconds"
    ~help:"Seconds from shard enqueue (or requeue) to worker assignment."
    ~labels:[ ("family", family) ] v

let observe_execute t ~family ~worker v =
  observe_hist t "teesec_serve_execute_seconds"
    ~help:"Seconds from shard assignment to the worker's reply."
    ~labels:[ ("family", family); ("worker", worker) ] v

let observe_backoff t v =
  observe_hist t "teesec_serve_retry_backoff_seconds"
    ~help:"Backoff delays scheduled after worker deaths." ~labels:[] v

(* Store accesses timed on the daemon clock. *)
let timed_store t name ~help f =
  let t0 = now_ns t in
  let r = f () in
  observe_hist t name ~help ~labels:[] (ns_to_s (Int64.sub (now_ns t) t0));
  r

let store_get t section ~digest =
  timed_store t "teesec_serve_store_read_seconds"
    ~help:"Store verdict lookups, hits and misses alike." (fun () ->
      Store.get t.store section ~digest)

let store_put t section ~digest payload =
  timed_store t "teesec_serve_store_write_seconds"
    ~help:"Store verdict writes." (fun () ->
      Store.put t.store section ~digest payload)

(* The one event path: every daemon state change is a single call that
   writes the JSONL line and, when it concerns a traced job, a trace
   instant of the same name and fields on the daemon clock ([Tracer.arg]
   is [Log.value]).  A job-scoped event leads with the job id.
   Daemon-side trace events are instants only: B/E balance of the
   merged trace rests solely on worker spans, which nest properly by
   construction. *)
let note t ?job level ~event fields =
  let fields =
    match job with
    | Some job -> ("job", Obs.Log.String job.j_id) :: fields
    | None -> fields
  in
  Obs.Log.event t.cfg.slog level ~event fields;
  match job with
  | Some job when job.j_trace ->
    job.j_events <-
      ({ ph = Obs.Tracer.Instant; name = event; ts = now_ns t; tid = 0;
         args = fields }
        : Obs.Tracer.event)
      :: job.j_events
  | _ -> ()

(* The merged Chrome trace: one process group for the daemon's lifecycle
   instants, one per worker pid that executed a traced shard.  Worker
   buffers were re-based onto the daemon clock at reply time, so the
   global timestamp sort in [chrome_json_of_processes] interleaves them
   correctly. *)
let build_trace job =
  let workers =
    Hashtbl.fold
      (fun pid events acc ->
        (pid, Printf.sprintf "teesec-worker-%d" pid, !events) :: acc)
      job.j_worker_events []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare (a : int) b)
  in
  Obs.Tracer.chrome_json_of_processes
    ((Unix.getpid (), "teesec-daemon", List.rev job.j_events) :: workers)

(* {2 Worker lifecycle} *)

(* Every daemon-side fd is closed in the worker child: a child holding a
   copy of the listening socket or a sibling's socketpair would keep
   them alive past daemon shutdown and mask EOF-based death detection. *)
let close_daemon_fds t ~keep =
  let close fd = if fd <> keep then try Unix.close fd with _ -> () in
  close t.listen_fd;
  Option.iter close t.http_fd;
  List.iter (fun c -> close c.c_fd) t.clients;
  Array.iter (fun w -> if w.w_pid <> 0 then close w.w_fd) t.pool

let spawn_worker t slot =
  let parent_fd, child_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close parent_fd;
    close_daemon_fds t ~keep:child_fd;
    Worker.loop child_fd
  | pid ->
    Unix.close child_fd;
    note t Obs.Log.Info ~event:"worker_spawn"
      [ ("slot", Obs.Log.Int slot); ("worker_pid", Obs.Log.Int pid) ];
    { w_slot = slot; w_pid = pid; w_fd = parent_fd; w_task = None; w_idle = false }

(* {2 Job bookkeeping} *)

let job_status job =
  let done_ = ref 0 and running = ref 0 and poisoned = ref 0 in
  Array.iter
    (fun s ->
      match s.state with
      | S_done -> incr done_
      | S_running _ -> incr running
      | S_poisoned -> incr poisoned
      | _ -> ())
    job.j_shards;
  {
    Protocol.js_job = job.j_id;
    js_kind = Request.kind job.j_spec;
    js_total = Array.length job.j_shards;
    js_done = !done_;
    js_running = !running;
    js_hits = job.j_hits;
    js_poisoned = !poisoned;
    js_complete = job.j_artifact <> None;
    js_failed = job.j_failed;
  }

let send_to_client fd msg =
  try
    Protocol.write_frame fd (Protocol.encode_server_msg msg);
    true
  with _ -> false

let artifact_msg job data =
  Protocol.Artifact
    { job = job.j_id; data; trace = job.j_trace_json; wave = job.j_wave_blob }

let notify_waiters job msg =
  List.iter (fun fd -> ignore (send_to_client fd msg)) job.j_waiters;
  job.j_waiters <- []

let fail_job t job reason =
  if job.j_failed = None then begin
    job.j_failed <- Some reason;
    note t ~job Obs.Log.Error ~event:"job_failed"
      [ ("reason", Obs.Log.String reason) ];
    notify_waiters job (Protocol.Failed { job = job.j_id; reason })
  end

(* Called whenever a shard reaches [S_done]; assembles the artifact once
   every shard has a payload.  Merge order is plan order — the payloads
   array is indexed by shard index — which is what makes the artifact
   independent of execution interleaving. *)
let maybe_complete t job =
  if
    job.j_artifact = None
    && job.j_failed = None
    && Array.for_all (fun s -> s.state = S_done) job.j_shards
  then begin
    let payloads =
      Array.to_list (Array.map (fun s -> Option.get s.payload) job.j_shards)
    in
    match Artifact.assemble job.j_spec payloads with
    | Ok data ->
      job.j_artifact <- Some data;
      Obs.Metrics.inc t.ins.i_artifacts;
      note t ~job Obs.Log.Info ~event:"job_done"
        [ ("bytes", Obs.Log.Int (String.length data)) ];
      if job.j_trace then job.j_trace_json <- Some (build_trace job);
      if job.j_wave then
        (* Shard order = plan order = corpus order, so the joined blob
           lists streams exactly as a local run would collect them. *)
        job.j_wave_blob <-
          Some
            (String.concat ""
               (Array.to_list (Array.map (fun s -> s.wave_blob) job.j_shards)));
      notify_waiters job (artifact_msg job data)
    | Error e -> fail_job t job (Printf.sprintf "artifact assembly: %s" e)
  end

let complete_shard ?(wave = "") t job sr payload =
  sr.state <- S_done;
  sr.payload <- Some payload;
  sr.wave_blob <- wave;
  maybe_complete t job

(* {2 Scheduling} *)

let now () = Unix.gettimeofday ()

let requeue_due_backoffs t =
  let t_now = now () in
  let still =
    List.filter
      (fun (job, idx) ->
        let sr = job.j_shards.(idx) in
        match sr.state with
        | S_backoff until when until <= t_now ->
          sr.state <- S_queued;
          sr.enqueued_ns <- now_ns t;
          Queue.add (job, idx) t.queue;
          false
        | S_backoff _ -> true
        | _ -> false)
      t.backoffs
  in
  t.backoffs <- still

(* Pop the next shard that still needs executing.  A queued shard whose
   digest has meanwhile appeared in the store (produced by an identical
   shard of another job) completes without a worker. *)
let rec next_ready_shard t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some (job, idx) -> (
    let sr = job.j_shards.(idx) in
    match sr.state with
    | S_queued -> (
      if job.j_failed <> None then begin
        (* The job is already failed (a sibling shard poisoned it);
           executing the rest would be wasted work. *)
        sr.state <- S_poisoned;
        next_ready_shard t
      end
      else
        match store_get t Store.Verdicts ~digest:sr.shard.Planner.digest with
        | Some payload ->
          Obs.Metrics.inc t.ins.i_hits;
          note t ~job Obs.Log.Info ~event:"late_store_hit"
            [
              ("shard", Obs.Log.Int idx);
              ("digest", Obs.Log.String sr.shard.Planner.digest);
            ];
          complete_shard t job sr payload;
          next_ready_shard t
        | None -> Some (job, idx))
    | _ -> next_ready_shard t)

let assign_shard t w job idx =
  let sr = job.j_shards.(idx) in
  let crash = t.crash_budget > 0 in
  if crash then t.crash_budget <- t.crash_budget - 1;
  sr.attempts <- sr.attempts + 1;
  sr.state <- S_running w.w_slot;
  sr.assigned_ns <- now_ns t;
  observe_queue_wait t
    ~family:(Request.kind job.j_spec)
    (ns_to_s (Int64.sub sr.assigned_ns sr.enqueued_ns));
  w.w_task <- Some (job, idx);
  w.w_idle <- false;
  note t ~job Obs.Log.Info ~event:"dispatch"
    [
      ("shard", Obs.Log.Int idx);
      ("digest", Obs.Log.String sr.shard.Planner.digest);
      ("worker", Obs.Log.Int w.w_slot);
      ("worker_pid", Obs.Log.Int w.w_pid);
      ("attempt", Obs.Log.Int sr.attempts);
    ];
  try
    Protocol.write_frame w.w_fd
      (Protocol.encode_worker_msg
         (Protocol.W_shard
            {
              digest = sr.shard.Planner.digest;
              crash;
              job = job.j_id;
              trace = job.j_trace;
              wave = job.j_wave;
              work = sr.shard.Planner.work;
            }))
  with _ ->
    (* The worker died between W_ready and this write; the EOF on its fd
       is already pending and the death path will requeue the shard. *)
    ()

let dispatch t =
  requeue_due_backoffs t;
  Array.iter
    (fun w ->
      if w.w_idle && w.w_pid <> 0 then
        match next_ready_shard t with
        | None -> ()
        | Some (job, idx) -> assign_shard t w job idx)
    t.pool

(* {2 Worker events} *)

let on_worker_death t w =
  (try Unix.close w.w_fd with _ -> ());
  (try ignore (Unix.waitpid [] w.w_pid) with _ -> ());
  Obs.Metrics.inc t.ins.i_restarts;
  let task = w.w_task in
  w.w_task <- None;
  note t ?job:(Option.map fst task) Obs.Log.Warn ~event:"worker_died"
    (("slot", Obs.Log.Int w.w_slot)
    :: ("worker_pid", Obs.Log.Int w.w_pid)
    :: (match task with None -> [] | Some (_, idx) -> [ ("shard", Obs.Log.Int idx) ]));
  (match task with
  | None -> ()
  | Some (job, idx) ->
    let sr = job.j_shards.(idx) in
    if sr.attempts > t.cfg.max_retries then begin
      sr.state <- S_poisoned;
      Obs.Metrics.inc t.ins.i_poisoned;
      note t ~job Obs.Log.Error ~event:"poison"
        [
          ("shard", Obs.Log.Int idx);
          ("digest", Obs.Log.String sr.shard.Planner.digest);
          ("attempts", Obs.Log.Int sr.attempts);
        ];
      fail_job t job
        (Printf.sprintf "shard %d (%s) poisoned after %d attempts" idx
           sr.shard.Planner.digest sr.attempts)
    end
    else begin
      let delay =
        min backoff_cap (backoff_base *. (2. ** float_of_int (sr.attempts - 1)))
      in
      sr.state <- S_backoff (now () +. delay);
      t.backoffs <- (job, idx) :: t.backoffs;
      observe_backoff t delay;
      note t ~job Obs.Log.Warn ~event:"backoff"
        [
          ("shard", Obs.Log.Int idx);
          ("delay_s", Obs.Log.Float delay);
          ("attempt", Obs.Log.Int sr.attempts);
        ]
    end);
  let fresh = spawn_worker t w.w_slot in
  w.w_pid <- fresh.w_pid;
  w.w_fd <- fresh.w_fd;
  w.w_idle <- false

let on_worker_readable t w =
  match (try Protocol.read_frame w.w_fd with _ -> None) with
  | None -> on_worker_death t w
  | Some frame -> (
    match (try Some (Protocol.decode_worker_reply frame) with _ -> None) with
    | None -> on_worker_death t w
    | Some Protocol.W_ready -> w.w_idle <- true
    | Some (Protocol.W_done { digest; payload; obs = shard_obs }) -> (
      match w.w_task with
      | Some (job, idx)
        when job.j_shards.(idx).shard.Planner.digest = digest ->
        let sr = job.j_shards.(idx) in
        w.w_task <- None;
        Obs.Metrics.inc t.ins.i_executed;
        observe_execute t
          ~family:(Request.kind job.j_spec)
          ~worker:(string_of_int w.w_slot)
          (ns_to_s (Int64.sub (now_ns t) sr.assigned_ns));
        (match shard_obs with
        | None -> ()
        | Some so ->
          (* Merge the worker's metric delta under its slot label, and
             re-base its span buffer onto the daemon clock: the offset
             maps the worker's shard-start reading onto the daemon's
             assignment reading (message latency folds into the first
             span, which is the honest place for it). *)
          Obs.Metrics.absorb
            ~extra_labels:[ ("worker", string_of_int w.w_slot) ]
            t.metrics so.Protocol.so_metrics;
          if job.j_trace then begin
            let offset = Int64.sub sr.assigned_ns so.Protocol.so_t0 in
            let shifted =
              Obs.Tracer.shift_events offset so.Protocol.so_events
            in
            let cell =
              match Hashtbl.find_opt job.j_worker_events so.Protocol.so_pid with
              | Some r -> r
              | None ->
                let r = ref [] in
                Hashtbl.add job.j_worker_events so.Protocol.so_pid r;
                r
            in
            cell := !cell @ shifted
          end);
        note t ~job Obs.Log.Info ~event:"shard_done"
          [
            ("shard", Obs.Log.Int idx);
            ("digest", Obs.Log.String digest);
            ("worker", Obs.Log.Int w.w_slot);
          ];
        store_put t Store.Verdicts ~digest payload;
        complete_shard t job sr payload
          ~wave:
            (match shard_obs with
            | Some so -> so.Protocol.so_wave
            | None -> "")
      | _ ->
        (* A reply for a shard we no longer track — a protocol bug.
           Restart the worker to resynchronise. *)
        on_worker_death t w))

(* {2 Client events} *)

let handle_submit t ~trace ~wave spec =
  Obs.Metrics.inc t.ins.i_submits;
  match Planner.plan ~max_shard_cases:t.cfg.max_shard_cases spec with
  | Error e ->
    note t Obs.Log.Warn ~event:"submit_rejected"
      [ ("reason", Obs.Log.String e) ];
    Protocol.Error_msg e
  | Ok shards -> (
    let job_id = Store.digest_of_fields (Request.digest_fields spec) in
    match Hashtbl.find_opt t.jobs job_id with
    | Some job -> Protocol.Submitted (job_status job)
    | None ->
      let hits = ref 0 in
      let shard_recs =
        List.map
          (fun (shard : Planner.shard) ->
            let sr =
              {
                shard;
                state = S_queued;
                attempts = 0;
                payload = None;
                wave_blob = "";
                enqueued_ns = 0L;
                assigned_ns = 0L;
              }
            in
            (match store_get t Store.Verdicts ~digest:shard.Planner.digest with
            | Some payload ->
              incr hits;
              Obs.Metrics.inc t.ins.i_hits;
              sr.state <- S_done;
              sr.payload <- Some payload
            | None ->
              Obs.Metrics.inc t.ins.i_misses;
              if
                shard.Planner.corpus_digest <> ""
                && not
                     (Store.mem t.store Store.Corpus
                        ~digest:shard.Planner.corpus_digest)
              then
                Store.put t.store Store.Corpus
                  ~digest:shard.Planner.corpus_digest
                  (Planner.corpus_text shard.Planner.work));
            sr)
          shards
      in
      let job =
        {
          j_id = job_id;
          j_spec = spec;
          j_shards = Array.of_list shard_recs;
          j_hits = !hits;
          j_trace = trace;
          j_wave = wave;
          j_artifact = None;
          j_failed = None;
          j_waiters = [];
          j_events = [];
          j_worker_events = Hashtbl.create 4;
          j_trace_json = None;
          j_wave_blob = None;
        }
      in
      Hashtbl.replace t.jobs job_id job;
      t.job_order <- job_id :: t.job_order;
      Obs.Metrics.set t.ins.i_jobs (float_of_int (Hashtbl.length t.jobs));
      let enq = now_ns t in
      Array.iteri
        (fun idx sr ->
          if sr.state = S_queued then begin
            sr.enqueued_ns <- enq;
            Queue.add (job, idx) t.queue
          end)
        job.j_shards;
      note t ~job Obs.Log.Info ~event:"submit"
        [
          ("kind", Obs.Log.String (Request.kind spec));
          ("shards", Obs.Log.Int (Array.length job.j_shards));
          ("hits", Obs.Log.Int !hits);
          ("trace", Obs.Log.Bool trace);
          ("wave", Obs.Log.Bool wave);
        ];
      maybe_complete t job;
      Protocol.Submitted (job_status job))

let build_status t =
  let jobs =
    List.rev_map
      (fun id -> job_status (Hashtbl.find t.jobs id))
      t.job_order
  in
  {
    Protocol.st_version = Protocol.version_string;
    st_workers = Array.length t.pool;
    st_worker_restarts = Obs.Metrics.counter_value t.ins.i_restarts;
    st_shards_executed = Obs.Metrics.counter_value t.ins.i_executed;
    st_store_hits = Obs.Metrics.counter_value t.ins.i_hits;
    st_store_misses = Obs.Metrics.counter_value t.ins.i_misses;
    st_jobs = jobs;
  }

let drop_client t c =
  (try Unix.close c.c_fd with _ -> ());
  t.clients <- List.filter (fun c' -> c' != c) t.clients;
  Hashtbl.iter
    (fun _ job ->
      job.j_waiters <- List.filter (fun fd -> fd <> c.c_fd) job.j_waiters)
    t.jobs

let on_client_readable t c =
  let drop () = drop_client t c in
  (* [reply] keeps the connection unless the write fails; [refuse] sends
     a last word and closes it. *)
  let reply msg = if not (send_to_client c.c_fd msg) then drop () in
  let refuse msg =
    ignore (send_to_client c.c_fd msg);
    drop ()
  in
  match (try Protocol.read_frame c.c_fd with _ -> None) with
  | None -> drop ()
  | Some frame -> (
    match (try Some (Protocol.decode_client_msg frame) with _ -> None) with
    | None -> refuse (Protocol.Error_msg "undecodable message")
    | Some (Protocol.Hello { proto; build }) ->
      if proto = Protocol.protocol_version then begin
        c.c_hello <- true;
        reply
          (Protocol.Hello_ok
             { proto = Protocol.protocol_version; build = Protocol.build_version })
      end
      else
        refuse
          (Protocol.Hello_err
             (Printf.sprintf
                "protocol mismatch: server speaks %d (build %s), client speaks \
                 %d (build %s)"
                Protocol.protocol_version Protocol.build_version proto build))
    | Some _ when not c.c_hello -> refuse (Protocol.Hello_err "handshake required")
    | Some (Protocol.Submit { spec; trace; wave }) ->
      reply (handle_submit t ~trace ~wave spec)
    | Some Protocol.Status -> reply (Protocol.Status_report (build_status t))
    | Some (Protocol.Results { job = job_id; wait }) -> (
      match Hashtbl.find_opt t.jobs job_id with
      | None -> reply (Protocol.Error_msg (Printf.sprintf "unknown job %s" job_id))
      | Some job -> (
        match (job.j_artifact, job.j_failed) with
        | Some data, _ -> reply (artifact_msg job data)
        | None, Some reason -> reply (Protocol.Failed { job = job_id; reason })
        | None, None ->
          if wait then job.j_waiters <- c.c_fd :: job.j_waiters
          else reply (Protocol.Pending (job_status job))))
    | Some Protocol.Shutdown ->
      note t Obs.Log.Info ~event:"shutdown" [];
      ignore (send_to_client c.c_fd Protocol.Shutting_down);
      t.running <- false)

(* {2 HTTP metrics endpoint} *)

let http_respond fd ~status ~content_type body =
  let response =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n%s"
      status content_type (String.length body) body
  in
  let len = String.length response in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd response off (len - off) in
      go (off + n)
  in
  try go 0 with _ -> ()

let rec head_complete s i =
  if i + 4 > String.length s then false
  else if
    s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
  then true
  else head_complete s (i + 1)

(* Read until the request head terminator.  Clients legitimately dribble
   a request across several segments (one TCP segment per header line is
   common), so a single read is not enough; an 8 KiB cap and a receive
   timeout bound a slow or hostile peer.  [None] means the head never
   completed — a malformed or abandoned request. *)
let read_request_head fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
  let cap = 8192 in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if head_complete (Buffer.contents buf) 0 then Some (Buffer.contents buf)
    else if Buffer.length buf >= cap then None
    else
      match (try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

let on_http_readable t listen =
  match (try Some (Unix.accept listen) with _ -> None) with
  | None -> ()
  | Some (fd, _) ->
    Obs.Metrics.inc t.ins.i_http;
    (match read_request_head fd with
    | None ->
      http_respond fd ~status:"400 Bad Request" ~content_type:"text/plain"
        "malformed request\n"
    | Some request -> (
      let meth, path =
        match String.split_on_char ' ' request with
        | meth :: path :: _ -> (meth, path)
        | _ -> ("", "")
      in
      note t Obs.Log.Debug ~event:"http_request"
        [ ("method", Obs.Log.String meth); ("path", Obs.Log.String path) ];
      if meth <> "GET" then
        http_respond fd ~status:"405 Method Not Allowed"
          ~content_type:"text/plain" "method not allowed\n"
      else
        match path with
        | "/metrics" ->
          http_respond fd ~status:"200 OK"
            ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (Obs.Metrics.to_prometheus t.metrics)
        | "/healthz" ->
          http_respond fd ~status:"200 OK" ~content_type:"text/plain" "ok\n"
        | _ ->
          http_respond fd ~status:"404 Not Found" ~content_type:"text/plain"
            "not found\n"));
    (try Unix.close fd with _ -> ())

(* {2 Main loop} *)

let select_timeout t =
  match t.backoffs with
  | [] -> 0.5
  | bs ->
    let t_now = now () in
    let soonest =
      List.fold_left
        (fun acc (job, idx) ->
          match job.j_shards.(idx).state with
          | S_backoff until -> min acc (until -. t_now)
          | _ -> acc)
        0.5 bs
    in
    max 0.01 soonest

let shutdown t =
  Array.iter
    (fun w ->
      if w.w_pid <> 0 then begin
        (try
           Protocol.write_frame w.w_fd
             (Protocol.encode_worker_msg Protocol.W_exit)
         with _ -> ());
        (try Unix.close w.w_fd with _ -> ());
        (try ignore (Unix.waitpid [] w.w_pid) with _ -> ());
        w.w_pid <- 0
      end)
    t.pool;
  List.iter (fun c -> try Unix.close c.c_fd with _ -> ()) t.clients;
  t.clients <- [];
  (try Unix.close t.listen_fd with _ -> ());
  Option.iter (fun fd -> try Unix.close fd with _ -> ()) t.http_fd;
  (try Unix.unlink t.cfg.socket_path with _ -> ())

let run cfg =
  if cfg.workers < 1 then invalid_arg "Daemon.run: workers must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let metrics = Obs.Metrics.create () in
  let ins = make_instruments metrics in
  (if Sys.file_exists cfg.socket_path then
     try Unix.unlink cfg.socket_path with _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
  Unix.listen listen_fd 16;
  let http_fd =
    match cfg.http_port with
    | None -> None
    | Some port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16;
      Some fd
  in
  let t =
    {
      cfg;
      store = Store.open_ ~root:cfg.store_root;
      metrics;
      clock = Obs.Clock.monotonic ();
      ins;
      listen_fd;
      http_fd;
      pool = [||];
      clients = [];
      jobs = Hashtbl.create 16;
      job_order = [];
      queue = Queue.create ();
      backoffs = [];
      crash_budget = cfg.test_crash_assignments;
      running = true;
    }
  in
  t.pool <- Array.init cfg.workers (fun slot -> spawn_worker t slot);
  (* Restarts are counted from zero: the initial spawns are not
     restarts, so the counter starts clean for the crash tests. *)
  Obs.Metrics.set ins.i_workers (float_of_int cfg.workers);
  note t Obs.Log.Info ~event:"listening"
    [
      ("socket", Obs.Log.String cfg.socket_path);
      ("workers", Obs.Log.Int cfg.workers);
      ("store", Obs.Log.String cfg.store_root);
    ];
  while t.running do
    dispatch t;
    let read_fds =
      (t.listen_fd :: Option.to_list t.http_fd)
      @ List.map (fun c -> c.c_fd) t.clients
      @ (Array.to_list t.pool
        |> List.filter_map (fun w ->
               if w.w_pid <> 0 then Some w.w_fd else None))
    in
    let readable, _, _ =
      try Unix.select read_fds [] [] (select_timeout t)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd = t.listen_fd then (
          match (try Some (Unix.accept t.listen_fd) with _ -> None) with
          | None -> ()
          | Some (cfd, _) ->
            t.clients <- { c_fd = cfd; c_hello = false } :: t.clients)
        else if Some fd = t.http_fd then on_http_readable t fd
        else
          match
            Array.find_opt
              (fun w -> w.w_pid <> 0 && w.w_fd = fd)
              t.pool
          with
          | Some w -> on_worker_readable t w
          | None -> (
            match List.find_opt (fun c -> c.c_fd = fd) t.clients with
            | Some c -> on_client_readable t c
            | None -> ()))
      readable;
    dispatch t
  done;
  shutdown t

let spawn cfg =
  match Unix.fork () with
  | 0 ->
    (try run cfg with _ -> ());
    Unix._exit 0
  | pid -> pid
