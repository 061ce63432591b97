(** The repository's one JSON reader and writer, hand-rolled so no JSON
    dependency is needed.

    Every JSON document the tools emit — verdict reports, provenance,
    log lines, traces, metrics dumps, bench records — is rendered by the
    writer below, so one escape rule and one number rule hold
    everywhere and report bytes are deterministic.  The reader lets
    tests, the [trace-check] subcommand and the bench comparator read
    those documents back structurally instead of by grep. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** Integer literals that fit an OCaml [int]; exact. *)
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [parse src] parses one complete JSON value; trailing non-whitespace
    bytes are an error. *)
val parse : string -> (t, string) result

(** Like {!parse} but raises {!Parse_error}. *)
val parse_exn : string -> t

(** [member key v] is the field [key] of an object, [None] on a missing
    key or a non-object. *)
val member : string -> t -> t option

val to_list : t -> t list option
val to_str : t -> string option

(** [Num] and [Int] alike. *)
val to_number : t -> float option

val to_bool : t -> bool option

(** [number_field key v] = [Option.bind (member key v) to_number]. *)
val number_field : string -> t -> float option

val string_field : string -> t -> string option

(** {1 Writer}

    Strings escape the double quote and backslash with a backslash,
    newline as [\\n] and other bytes below 0x20 as [\\u00XX]; every
    other byte, UTF-8 included, passes through.  [Int] prints its exact
    decimal.  A [Num] that is NaN or infinite prints [null]; an
    integral one below 1e15 in magnitude prints without a fraction; any
    other prints the shortest of [%.15g]/[%.16g]/[%.17g] that reads
    back as the same float. *)

(** [to_string v] renders [v] on one line: [{"k": v, ...}], [[a, b]]. *)
val to_string : t -> string

(** [array f xs] is [to_string (Arr (List.map f xs))], rendered one
    element at a time so no tree of the whole list is ever built. *)
val array : ('a -> t) -> 'a list -> string

(** A top-level member of a {!document}.  [Items] and [Rows] map their
    elements to trees one at a time, like {!array}. *)
type member =
  | Inline : t -> member  (** One line. *)
  | Items : ('a -> t) * 'a list -> member  (** An inline [[a, b]]. *)
  | Rows : ('a -> t) * 'a list -> member
      (** An array with one element per line. *)

(** [document members] renders a report object, one member per line and
    a trailing newline.  Members are indented two spaces and [Rows]
    elements four; [Rows] of [[]] keeps one blank element line.
    {v
{
  "k": v,
  "rows": [
    r1,
    r2
  ]
}
    v} *)
val document : (string * member) list -> string
