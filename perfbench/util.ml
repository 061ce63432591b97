(* Helpers shared by every workload: the clocks, order statistics,
   allocation counters and the run's scratch directory. *)

(* Wall clock: deadlines and the spans of the traced pass. *)
let now = Unix.gettimeofday

(* CPU time of this process (user + system, nanosecond resolution),
   which times every end-to-end figure.  Each pass is single-threaded and
   never waits, so on an idle core the two clocks agree; on a shared
   host CPU time leaves out the time the process spent descheduled, or
   its vCPU stolen by the hypervisor, which is the host's load and not
   the program's cost. *)
let cpu = Calib.cpu

let timed f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* [f ()] with its CPU time and the minor words it allocated, so a
   pass meters the program's calls and not its own bookkeeping. *)
let metered f =
  let w0 = Gc.minor_words () in
  let r, dt = timed f in
  (r, dt, Gc.minor_words () -. w0)

(* Linear-interpolation quantile ([q] in [0, 1]), the same definition
   Python's [statistics.quantiles(method="inclusive")] uses. *)
let quantile q = function
  | [] -> nan
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l

(* Each unit's latency as the median of its samples over the run's
   passes, one value per unit. *)
let unit_medians samples =
  let by_unit = Hashtbl.create 1024 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace by_unit k (v :: Option.value (Hashtbl.find_opt by_unit k) ~default:[]))
    samples;
  Hashtbl.fold (fun _ vs acc -> median vs :: acc) by_unit []

let sum l = List.fold_left ( +. ) 0. l

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let ratio a b = if b = 0. then 0. else a /. b

(* Both cores, in the order every workload runs them. *)
let configs = [ Uarch.Config.boom; Uarch.Config.xiangshan ]

let core_name (config : Uarch.Config.t) =
  String.lowercase_ascii (Uarch.Config.core_kind_to_string config.Uarch.Config.kind)

(* Everything a run writes lives under this directory of the checkout
   (relative, so Unix-socket paths stay short wherever the checkout
   is). *)
let out_dir = ".perfbench-out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* What one pass measured.  [seconds] and [words] cover only the
   program's calls, not the benchmark's own checks. *)
type 'r pass = {
  p_setup_s : float list;
  p_seconds : float;
  p_ref_s : float list;  (** The pass's reference-kernel times ([Calib]). *)
  p_lat_ms : (string * float) list;  (** (unit, milliseconds) samples. *)
  p_words : float;  (** Minor words allocated. *)
  p_heap_mb : float;  (** Peak major heap of the pass's process. *)
  p_units : int;
  p_results : 'r;  (** What the checks compare. *)
}

(* What an untraced run measured end to end. *)
type e2e = {
  setup_s : float list;  (** One sample per set-up. *)
  pass_rate : float list;  (** Units per second, one sample per pass. *)
  latency_ms : (string * float) list;
      (** (unit, milliseconds): one sample per unit per pass. *)
  cpu_rate : float list;  (** [pass_rate] before scaling to the reference speed. *)
  ref_ms : float list;  (** Every reference-kernel time of the run. *)
  units : int;  (** Units completed by the timed jobs. *)
  minor_words : float;  (** Minor words those jobs allocated. *)
  top_heap_mb : float;  (** Median over passes of [p_heap_mb]. *)
  attempted : int;
  failed : int;
}

(* What a traced run measured: the per-layer figures of its workload,
   and whether its verdicts and counts agree with the untraced pass. *)
type traced = {
  layers : (string * float) list;
  agree : bool;
  untraced_s : float list;
      (** Time of each untraced pass: CPU time, wall time for the serve probe. *)
  traced_s : float list;  (** Time of each traced pass, on the same clock. *)
  t_attempted : int;
  t_failed : int;
}

(* Run [setup] [reps] times, pushing every duration onto [samples], and
   keep the last result: set-up is measured as a median of several. *)
let setup_samples ~reps samples setup =
  let rec go i =
    let st, dt = timed setup in
    samples := dt :: !samples;
    if i >= reps then st else go (i + 1)
  in
  go 1

(* Run [pass] once, then again while the deadline has not passed. *)
let until deadline pass =
  pass ();
  while now () < deadline do
    pass ()
  done

let report_exn what e =
  Printf.eprintf "perfbench: %s raised %s\n%!" what (Printexc.to_string e)

(* The factor that states a pass's times at the reference speed. *)
let speed_scale p = Calib.nominal_s /. median p.p_ref_s

(* The end-to-end figures of a run's passes, in the order they ran, each
   time scaled by its pass's [speed_scale].  A pass whose process died
   counts as one failed unit. *)
let e2e ~attempted ~failed ~died passes =
  let all f = List.map f passes in
  let units = List.fold_left ( + ) 0 (all (fun p -> p.p_units)) in
  let rate p = float_of_int p.p_units /. p.p_seconds in
  {
    setup_s = List.concat (all (fun p -> List.map (( *. ) (speed_scale p)) p.p_setup_s));
    pass_rate = all (fun p -> rate p /. speed_scale p);
    latency_ms =
      List.concat (all (fun p -> List.map (fun (k, v) -> (k, v *. speed_scale p)) p.p_lat_ms));
    cpu_rate = all rate;
    ref_ms = List.concat (all (fun p -> List.map (( *. ) 1e3) p.p_ref_s));
    units;
    minor_words = sum (all (fun p -> p.p_words));
    top_heap_mb = median (all (fun p -> p.p_heap_mb));
    attempted = attempted + died;
    failed = failed + died;
  }

(* In a forked process: run [f], write its result to [w] and exit. *)
let send_and_exit w (f : unit -> 'a) =
  let res = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let oc = Unix.out_channel_of_descr w in
  Marshal.to_channel oc (res : ('a, string) result) [];
  close_out oc;
  Unix._exit 0

(* Run [f] in a forked child and return its result.  Every pass runs
   this way, so each starts from a fresh heap the way a CLI invocation
   does, and nothing it allocates (snapshot caches live in domain-local
   storage for the life of a process) outlives it.  The process is
   single-domain whenever this is called, which makes forking safe. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    send_and_exit w f
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let res =
      try (Marshal.from_channel ic : ('a, string) result)
      with End_of_file | Failure _ -> Error "pass process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    res

let child f =
  match in_child f with
  | Ok r -> Some r
  | Error e ->
    prerr_endline ("perfbench: " ^ e);
    None

(* Passes [pass 0], [pass 1]... until the deadline, each in a fresh
   process; returns the passes in order and how many processes died.

   Every pass forks from one launcher process that never holds a result:
   each pass writes its result straight to this process, so all passes
   start from the same heap however many ran before them.  (Forked from
   here, later passes would inherit a heap grown by the results already
   collected, which moves their peak heap by up to 10%.)  The launcher
   writes [Error] for a pass that did not exit cleanly. *)
let passes deadline (pass : int -> unit -> 'a) =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let k = ref 0 in
    until deadline (fun () ->
        flush_all ();
        (match Unix.fork () with
         | 0 -> send_and_exit w (pass !k)
         | pid -> (
           match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> ()
           | _ ->
             let oc = Unix.out_channel_of_descr w in
             Marshal.to_channel oc (Error "pass process died" : ('a, string) result) [];
             flush oc));
        incr k);
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let rec read done_ died =
      match (Marshal.from_channel ic : ('a, string) result) with
      | Ok p -> read (p :: done_) died
      | Error e ->
        prerr_endline ("perfbench: " ^ e);
        read done_ (died + 1)
      | exception (End_of_file | Failure _) -> (List.rev done_, died)
    in
    let res = read [] 0 in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    res
