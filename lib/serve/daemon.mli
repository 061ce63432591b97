(** The campaign-service daemon.

    A single-threaded [select] loop owning:

    - a Unix-domain listening socket speaking the {!Protocol} client
      frames (submit / status / results / shutdown);
    - [workers] forked worker processes, each on its own socketpair,
      fed one shard at a time and respawned on death;
    - the persistent content-addressed {!Store} (shards found in the
      store are never re-executed);
    - an optional HTTP endpoint on 127.0.0.1 serving the lib/obs
      metrics registry as Prometheus text ([GET /metrics]).

    Retry/poison state machine: a shard whose worker dies is retried
    with capped exponential backoff (50 ms doubling up to 1 s,
    [max_retries] attempts in total) and then poisoned,
    which fails its job; every other job continues.  Shard outcomes are
    merged in plan order, so artifacts are byte-identical to the
    one-shot CLI for every worker count and store temperature. *)

type config = {
  socket_path : string;
  store_root : string;
  workers : int;  (** Worker processes ([>= 1]). *)
  http_port : int option;  (** Metrics endpoint on 127.0.0.1, if any. *)
  max_shard_cases : int;
  max_retries : int;  (** Assignment attempts per shard before poisoning. *)
  test_crash_assignments : int;
      (** Deterministic fault hook for the crash-recovery tests: the
          first N shard assignments instruct the worker to die without
          replying.  0 in production. *)
  slog : Obs.Log.t;
      (** The daemon's one event stream, JSONL: [listening],
          [worker_spawn], [submit], [submit_rejected], [dispatch],
          [shard_done], [late_store_hit], [worker_died], [backoff],
          [poison], [job_done], [job_failed], [http_request] and
          [shutdown].  Events about a job submitted with tracing on also
          land in its merged trace as instants of the same name and
          fields.  {!Obs.Log.null} (the default) drops them all. *)
}

val default_config : socket_path:string -> store_root:string -> config

(** [run config] serves until a client sends [Shutdown]; returns after
    workers are joined and the socket is unlinked.  The daemon owns its
    metrics registry: [/metrics] and the status report read it. *)
val run : config -> unit

(** [spawn config] forks a child that runs {!run} and exits; returns its
    pid.  The caller should connect with {!Client.connect_retry}. *)
val spawn : config -> int
