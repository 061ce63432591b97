(** Batch client for the campaign service.

    All calls are synchronous request/response over one Unix-domain
    connection.  {!connect} performs the version handshake; a protocol
    mismatch is an [Error] before any request is sent. *)

type t

(** [connect ~socket_path] connects and handshakes.  [Error] on a
    missing socket, a refused connection or a protocol mismatch. *)
val connect : socket_path:string -> (t, string) result

(** [connect_retry ~socket_path ()] polls for the socket (the daemon may
    still be binding after {!Daemon.spawn}), then {!connect}s.
    [attempts] * [delay] bounds the wait (default 100 * 0.05s = 5s). *)
val connect_retry :
  ?attempts:int -> ?delay:float -> socket_path:string -> unit ->
  (t, string) result

(** [submit t spec] plans, stores and queues the request; returns its
    job status (which may already be complete on a warm store).  With
    [~trace:true] the daemon collects a merged cross-process Chrome
    trace for the job, delivered beside the artifact by {!results}.
    With [~wave:true] it likewise collects the job's framed wave
    streams — but shards satisfied from the verdict store contribute
    none (the store never holds waves), so a fully warm job yields an
    empty wave payload. *)
val submit :
  ?trace:bool ->
  ?wave:bool ->
  t ->
  Request.spec ->
  (Protocol.job_status, string) result

val status : t -> (Protocol.status, string) result

(** A completed job's payload: the assembled artifact; when submitted
    with [~trace:true], its merged Chrome trace JSON; when submitted
    with [~wave:true], its framed wave streams
    ({!Wave.Event.frame_streams}, shard order). *)
type artifact = { data : string; trace : string option; wave : string option }

(** [results t job] fetches the artifact, blocking inside the daemon
    until the job completes (or fails) when [wait] (default).  With
    [~wait:false] an incomplete job returns [Ok (Error status)]. *)
val results :
  ?wait:bool ->
  t ->
  string ->
  ((artifact, Protocol.job_status) result, string) result

(** Ask the daemon to exit; the reply confirms it began shutting down. *)
val shutdown : t -> (unit, string) result

val close : t -> unit
