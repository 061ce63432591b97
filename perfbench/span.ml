(* In-memory span recorder for the traced pass.

   A span has a name, a start, an end and the span that was open when it
   started.  Spans stay in memory until [write] dumps them at the end of
   the run, so recording costs a clock read and a cons.  Names that
   start with ["bench."] belong to the benchmark itself ([bench.job],
   [bench.unit]); every other name is a call into a layer of the
   program. *)

type t = { id : int; parent : int; name : string; t0 : float; t1 : float }

let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []

(* Tracing is off until [start]: [with_] then only calls its function,
   so untraced passes that share code with traced ones record nothing. *)
let on = ref false

let start () =
  recorded := [];
  next_id := 0;
  open_ids := [];
  on := true

let current () = match !open_ids with [] -> -1 | id :: _ -> id

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let with_ name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    open_ids := id :: !open_ids;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now () in
        open_ids := List.tl !open_ids;
        recorded := { id; parent; name; t0; t1 } :: !recorded)
      f
  end

(* A closed span under the current one, for phases delimited by a
   callback rather than by a call ([Runner.run]'s [~prepare] hook). *)
let add name ~t0 ~t1 =
  if !on then recorded := { id = fresh_id (); parent = current (); name; t0; t1 } :: !recorded

let is_bench s = String.starts_with ~prefix:"bench." s.name
let duration s = s.t1 -. s.t0

(* Self time per span: its duration minus the part its children cover
   (children never overlap, since the traced pass is sequential). *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let c = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
      Hashtbl.replace child s.parent (c +. duration s))
    !recorded;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    !recorded

(* Per span name: (calls, summed self seconds, summed duration). *)
let table () =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, st, d = Option.value (Hashtbl.find_opt t s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace t s.name (n + 1, st +. self, d +. duration s))
    (self_times ());
  t

let find t name = Option.value (Hashtbl.find_opt t name) ~default:(0, 0., 0.)
let calls t name = let n, _, _ = find t name in n
let self_s t name = let _, s, _ = find t name in s

(* Mean self time per call of [name], scaled ([1e6] for microseconds);
   0 when the layer was never called. *)
let mean_self ?(scale = 1e6) t name =
  Util.ratio (self_s t name *. scale) (float_of_int (calls t name))

(* Mean duration per call, children included. *)
let mean_total ?(scale = 1e6) t name =
  let n, _, d = find t name in
  Util.ratio (d *. scale) (float_of_int n)

(* Share of the [bench.job] spans' wall time that no layer span covers:
   time a job spent outside every call into the program. *)
let unattributed_share () =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !recorded;
  let jobs =
    Util.sum
      (List.filter_map
         (fun s -> if s.name = "bench.job" then Some (duration s) else None)
         !recorded)
  in
  let covered =
    Util.sum
      (List.filter_map
         (fun s ->
           match Hashtbl.find_opt by_id s.parent with
           | Some p when (not (is_bench s)) && is_bench p -> Some (duration s)
           | _ -> None)
         !recorded)
  in
  Util.ratio (jobs -. covered) jobs

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \"end_s\": %.9f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.t0 s.t1)
    (List.rev !recorded);
  output_string oc "]\n";
  close_out oc

(* Append the spans a pass process recorded, renumbered after ours. *)
let absorb spans =
  let base = !next_id in
  let shift id = if id < 0 then id else id + base in
  recorded :=
    List.map (fun s -> { s with id = shift s.id; parent = shift s.parent }) spans @ !recorded;
  next_id := base + List.fold_left (fun m s -> max m (s.id + 1)) 0 spans
