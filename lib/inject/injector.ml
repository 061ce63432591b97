open! Import

let apply_oneshot machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Bit_flip structure ->
    ignore (Machine.flip_bit machine ~structure ~select:f.select ~bit:f.bit)
  | Fault_model.Hpc_corrupt ->
    ignore
      (Machine.flip_bit machine ~structure:Structure.Hpm_counters ~select:f.select
         ~bit:f.bit)
  | Fault_model.Snapshot_delay ->
    Machine.delay_snapshots machine ~count:(1 + (f.select mod 3))
  | Fault_model.Flush_drop _ | Fault_model.Flush_partial _
  | Fault_model.Pmp_stuck_grant ->
    assert false (* windowed; handled by activate/deactivate *)

let activate machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Flush_drop structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_dropped
  | Fault_model.Flush_partial structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_partial
  | Fault_model.Pmp_stuck_grant -> Machine.set_pmp_stuck_grant machine true
  | Fault_model.Bit_flip _ | Fault_model.Snapshot_delay | Fault_model.Hpc_corrupt ->
    assert false

let deactivate machine (f : Fault_plan.fault) =
  match f.model with
  | Fault_model.Flush_drop structure | Fault_model.Flush_partial structure ->
    Machine.set_flush_fault machine ~structure Machine.Flush_normal
  | Fault_model.Pmp_stuck_grant -> Machine.set_pmp_stuck_grant machine false
  | Fault_model.Bit_flip _ | Fault_model.Snapshot_delay | Fault_model.Hpc_corrupt ->
    assert false

(* Fire every pending fault whose window has opened by [cycle].  A
   top-level function rather than a closure over the hook's state, so a
   cycle with nothing due allocates nothing. *)
let rec fire_due m ~pending ~active ~cycle =
  match !pending with
  | f :: rest when f.Fault_plan.window_start <= cycle ->
    pending := rest;
    if Fault_model.windowed f.Fault_plan.model then begin
      activate m f;
      active := (f, f.Fault_plan.window_start + f.Fault_plan.window_len) :: !active
    end
    else apply_oneshot m f;
    fire_due m ~pending ~active ~cycle
  | _ -> ()

let arm machine (plan : Fault_plan.t) =
  (* Windows are relative to the arming cycle, so a plan perturbs the
     run identically whether the setup prefix was replayed or restored
     from a snapshot (the two paths arm at the same cycle, but relative
     windows make the contract independent of where the fork point
     lands). *)
  let base = Machine.cycle machine in
  (* [faults] is sorted by window start, so the head is always the next
     fault to fire. *)
  let pending = ref plan.Fault_plan.faults in
  let active = ref [] in
  let hook m =
    let cycle = Machine.cycle m - base in
    (* Close expired windows before opening new ones, so a window of
       length zero cycles never sticks.  While no window is open there
       is nothing to close. *)
    (match !active with
    | [] -> ()
    | open_windows ->
      let expired, still =
        List.partition (fun ((_ : Fault_plan.fault), until) -> cycle >= until) open_windows
      in
      active := still;
      List.iter (fun (f, _) -> deactivate m f) expired);
    fire_due m ~pending ~active ~cycle
  in
  Machine.set_advance_hook machine (Some hook)
