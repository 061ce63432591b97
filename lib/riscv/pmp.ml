type address_mode = Off | Tor | Na4 | Napot
type permission = { read : bool; write : bool; execute : bool }

let no_access = { read = false; write = false; execute = false }
let read_only = { read = true; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }
let full_access = { read = true; write = true; execute = true }

type entry = {
  mode : address_mode;
  perm : permission;
  locked : bool;
  address : Word.t;
}

let disabled_entry = { mode = Off; perm = no_access; locked = false; address = 0L }
let entry_count = 16

(* The entries plus their decoded byte ranges.  [bounds] holds each
   entry's inclusive [first; last] pair as two unboxed int64s (bytes
   [16i, 16i+16)), and bit [i] of [ranged] says whether entry [i]
   covers any byte at all.  Both are recomputed by [decode] whenever
   the table changes, so a check reads them without allocating. *)
type t = {
  entries : entry array;
  bounds : Bytes.t;
  mutable ranged : int;
  mutable any_active : bool;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create () =
  {
    entries = Array.make entry_count disabled_entry;
    bounds = Bytes.make (16 * entry_count) '\000';
    ranged = 0;
    any_active = false;
  }

let get t i = t.entries.(i)

(* Unsigned 64-bit order. *)
let[@inline] ule (a : int64) (b : int64) = Int64.add a Int64.min_int <= Int64.add b Int64.min_int

let napot_entry ~base ~size ~perm ~locked =
  assert (size >= 8 && size land (size - 1) = 0);
  assert (Word.is_aligned base ~alignment:size);
  (* pmpaddr holds (base >> 2) with the low bits encoding the region size:
     a NAPOT region of 2^(n+3) bytes has n trailing one bits after the
     mandatory 0 -> 01...1 pattern. *)
  let ones =
    let rec count n acc = if n <= 8 then acc else count (n lsr 1) (acc + 1) in
    count size 0
  in
  let low = Word.mask ones in
  let address = Int64.logor (Int64.shift_right_logical base 2) low in
  { mode = Napot; perm; locked; address }

(* Inclusive [(first, last)] of a NAPOT entry.  With n trailing ones the
   region is 2^(n+3) bytes; from n = 61 on (pmpaddr = -1 is the usual
   "whole address space" idiom) that is at least 2^64, i.e. everything. *)
let napot_bounds e =
  let rec trailing_ones x n =
    if Int64.logand x 1L = 1L then trailing_ones (Int64.shift_right_logical x 1) (n + 1)
    else n
  in
  let ones = trailing_ones e.address 0 in
  if ones >= 61 then (0L, -1L)
  else
    let base =
      Int64.shift_left (Int64.logand e.address (Int64.lognot (Word.mask ones))) 2
    in
    (base, Int64.add base (Word.mask (ones + 3)))

let napot_range e =
  let first, last = napot_bounds e in
  (first, Int64.succ (Int64.sub last first))

type access_kind = Read | Write | Execute

let pp_access_kind fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write -> Format.pp_print_string fmt "write"
  | Execute -> Format.pp_print_string fmt "execute"

type check_result = Allowed | Denied of { entry_index : int option }

(* {2 Reference matcher}

   Decodes every entry into a boxed range on every call.  It is the
   oracle the decoded columns below are tested against. *)

let entry_bounds entries i =
  let e = entries.(i) in
  match e.mode with
  | Off -> None
  | Na4 ->
    let first = Int64.shift_left e.address 2 in
    Some (first, Int64.add first 3L)
  | Napot -> Some (napot_bounds e)
  | Tor ->
    let base = if i = 0 then 0L else Int64.shift_left entries.(i - 1).address 2 in
    let top = Int64.shift_left e.address 2 in
    if ule top base then None else Some (base, Int64.pred top)

type match_kind = No_match | Partial | Full

let match_entry entries i ~addr ~size =
  match entry_bounds entries i with
  | None -> No_match
  | Some (first, last) ->
    let access_last = Int64.add addr (Int64.of_int (size - 1)) in
    let starts_inside = ule first addr && ule addr last in
    let ends_inside = ule first access_last && ule access_last last in
    if starts_inside && ends_inside then Full
    else if starts_inside || ends_inside then Partial
    else No_match

let perm_allows perm = function
  | Read -> perm.read
  | Write -> perm.write
  | Execute -> perm.execute

let check_reference t ~priv ~kind ~addr ~size =
  let entries = t.entries in
  let any_active = Array.exists (fun e -> e.mode <> Off) entries in
  let rec search i =
    if i >= entry_count then
      (* No entry matched: M-mode succeeds; lower modes fail whenever any
         entry is active. *)
      if Priv.equal priv Priv.Machine || not any_active then Allowed
      else Denied { entry_index = None }
    else
      match match_entry entries i ~addr ~size with
      | No_match -> search (i + 1)
      | Partial -> Denied { entry_index = Some i }
      | Full ->
        let e = entries.(i) in
        if Priv.equal priv Priv.Machine && not e.locked then Allowed
        else if perm_allows e.perm kind then Allowed
        else Denied { entry_index = Some i }
  in
  search 0

(* {2 Decoded table} *)

let decode t =
  let ranged = ref 0 in
  for i = 0 to entry_count - 1 do
    match entry_bounds t.entries i with
    | None -> ()
    | Some (first, last) ->
      set64 t.bounds (16 * i) first;
      set64 t.bounds ((16 * i) + 8) last;
      ranged := !ranged lor (1 lsl i)
  done;
  t.ranged <- !ranged;
  t.any_active <- Array.exists (fun e -> e.mode <> Off) t.entries

let set t i e =
  t.entries.(i) <- e;
  (* A TOR entry's base is the previous entry's address, so entry i+1's
     range can change too; the table is small enough to redecode. *)
  decode t

let clear t =
  Array.fill t.entries 0 entry_count disabled_entry;
  decode t

(* Entries are immutable records, so a shallow array copy is deep. *)
let copy t =
  {
    entries = Array.copy t.entries;
    bounds = Bytes.copy t.bounds;
    ranged = t.ranged;
    any_active = t.any_active;
  }

let restore_into src ~into =
  Array.blit src.entries 0 into.entries 0 entry_count;
  Bytes.blit src.bounds 0 into.bounds 0 (Bytes.length src.bounds);
  into.ranged <- src.ranged;
  into.any_active <- src.any_active

(* The first entry matching any byte of the access: [i] for a full
   match, [i + entry_count] for a partial one, [2 * entry_count] when
   none matches. *)
let no_match = 2 * entry_count

let search t ~addr ~size =
  let access_last = Int64.add addr (Int64.of_int (size - 1)) in
  let result = ref no_match in
  let i = ref 0 in
  while !i < entry_count do
    let n = !i in
    if t.ranged land (1 lsl n) <> 0 then begin
      let first = get64 t.bounds (16 * n) and last = get64 t.bounds ((16 * n) + 8) in
      let starts_inside = ule first addr && ule addr last in
      let ends_inside = ule first access_last && ule access_last last in
      if starts_inside && ends_inside then begin
        result := n;
        i := entry_count
      end
      else if starts_inside || ends_inside then begin
        result := n + entry_count;
        i := entry_count
      end
      else i := n + 1
    end
    else i := n + 1
  done;
  !result

let granted t n ~priv ~kind =
  let e = t.entries.(n) in
  (Priv.equal priv Priv.Machine && not e.locked) || perm_allows e.perm kind

let unmatched_allowed t ~priv = Priv.equal priv Priv.Machine || not t.any_active

(* Denials are immutable, so every check shares these. *)
let denied_at = Array.init entry_count (fun i -> Denied { entry_index = Some i })
let denied_unmatched = Denied { entry_index = None }

let check t ~priv ~kind ~addr ~size =
  let m = search t ~addr ~size in
  if m < entry_count then (if granted t m ~priv ~kind then Allowed else denied_at.(m))
  else if m < no_match then denied_at.(m - entry_count)
  else if unmatched_allowed t ~priv then Allowed
  else denied_unmatched

let allows t ~priv ~kind ~addr ~size =
  let m = search t ~addr ~size in
  if m < entry_count then granted t m ~priv ~kind
  else if m < no_match then false
  else unmatched_allowed t ~priv

let region_of_entry t i = entry_bounds t.entries i

let pp fmt t =
  Array.iteri
    (fun i e ->
      match entry_bounds t.entries i with
      | None -> ()
      | Some (first, last) ->
        Format.fprintf fmt "pmp[%d] %a..%a %s%s%s%s@." i Word.pp first Word.pp last
          (if e.perm.read then "r" else "-")
          (if e.perm.write then "w" else "-")
          (if e.perm.execute then "x" else "-")
          (if e.locked then " L" else ""))
    t.entries
