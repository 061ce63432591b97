(* The host's speed, measured with fixed code between the timed calls of
   every pass, so the end-to-end times can be stated at one reference
   speed.

   On a shared host the same pass runs up to 2x slower for tens of
   seconds while neighbours load the core's caches and memory, and CPU
   time sees that as well as wall time does.  The kernel here is what
   the program spends most of its time on at the machine level: OCaml
   allocation, minor collections and hash-table updates.  It calls no
   code of the program, so no change to the program moves it.  A pass's
   times are scaled by [nominal_s /. median of its kernel times]: they
   read as CPU time on a host where one kernel run takes [nominal_s].

   Of the four kernels tried (random reads of a 32 MiB table, an 8 MiB
   copy, an ALU loop, and this one), this one tracked all three
   workloads best; RATIONALE.md has the figures. *)

let nominal_s = 0.004

external cpu : unit -> float = "perfbench_cpu_time"

type cell = { key : int; tag : string; next : cell option }

let kernel () =
  let h = Hashtbl.create 4096 and chain = ref None in
  for i = 0 to 59_999 do
    chain := Some { key = i; tag = "k"; next = (if i land 255 = 0 then None else !chain) };
    Hashtbl.replace h (i land 4095) i
  done;
  ignore (Sys.opaque_identity (!chain, Hashtbl.length h))

let samples : float list ref = ref []

(* Three kernel runs, recorded for the pass in progress.  Passes call
   this before each timed job and once at the end. *)
let checkpoint () =
  for _ = 1 to 3 do
    let t0 = cpu () in
    kernel ();
    samples := (cpu () -. t0) :: !samples
  done

(* The samples recorded since the last call. *)
let take () =
  let s = !samples in
  samples := [];
  s
