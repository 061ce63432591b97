type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "at byte %d: %s" st.pos msg))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> error st (Printf.sprintf "expected %c, got %c" c got)
  | None -> error st (Printf.sprintf "expected %c, got end of input" c)

let expect_word st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let c = st.src.[st.pos] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

(* \uXXXX escapes are decoded to UTF-8; surrogate pairs are not
   recombined (each half renders independently), which is fine for the
   ASCII-dominated traces and metrics this parser validates. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> add_utf8 buf (parse_hex4 st)
        | c -> error st (Printf.sprintf "bad escape \\%c" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  let integral =
    String.for_all (function '0' .. '9' | '-' -> true | _ -> false) text
  in
  match (if integral then int_of_string_opt text else None) with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> error st (Printf.sprintf "bad number %S" text))

(* Nesting is bounded so adversarial input ("[[[[…") fails with a
   {!Parse_error} instead of escaping as [Stack_overflow] — the parser
   sees wire bytes (worker replies, HTTP bodies), not just our own
   output.  512 levels is far beyond anything the tooling emits. *)
let max_depth = 512

let rec parse_value st ~depth =
  if depth > max_depth then
    error st (Printf.sprintf "nesting deeper than %d levels" max_depth);
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
        | _ -> error st "expected , or } in object"
      in
      members []
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st ~depth:(depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          Arr (List.rev (v :: acc))
        | _ -> error st "expected , or ] in array"
      in
      elements []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

let parse_exn src =
  let st = { src; pos = 0 } in
  let v = parse_value st ~depth:0 in
  skip_ws st;
  if st.pos <> String.length src then error st "trailing bytes after value";
  v

let parse src =
  try Ok (parse_exn src) with Parse_error msg -> Error msg

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr l -> Some l | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_number = function
  | Num f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let number_field key v = Option.bind (member key v) to_number
let string_field key v = Option.bind (member key v) to_str

(* {2 Writer} *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The shortest of %.15g/%.16g/%.17g that reads back as [f]; %.17g
   always does. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let fits s = float_of_string s = f in
    let s15 = Printf.sprintf "%.15g" f in
    if fits s15 then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if fits s16 then s16 else Printf.sprintf "%.17g" f

(* Every layout the writer produces is [left item sep item ... right]. *)
let add_sep buf (left, sep, right) add items =
  Buffer.add_string buf left;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf sep;
      add x)
    items;
  Buffer.add_string buf right

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f -> Buffer.add_string buf (float_repr f)
  | Str s -> add_escaped buf s
  | Arr l -> add_sep buf ("[", ", ", "]") (to_buffer buf) l
  | Obj fields ->
    add_sep buf ("{", ", ", "}")
      (fun (k, v) ->
        add_escaped buf k;
        Buffer.add_string buf ": ";
        to_buffer buf v)
      fields

let to_string v =
  let buf = Buffer.create 64 in
  to_buffer buf v;
  Buffer.contents buf

let array f items =
  let buf = Buffer.create 1024 in
  add_sep buf ("[", ", ", "]") (fun x -> to_buffer buf (f x)) items;
  Buffer.contents buf

type member =
  | Inline : t -> member
  | Items : ('a -> t) * 'a list -> member
  | Rows : ('a -> t) * 'a list -> member

let document members =
  let buf = Buffer.create 4096 in
  add_sep buf ("{\n", ",\n", "\n}\n")
    (fun (k, m) ->
      Buffer.add_string buf "  ";
      add_escaped buf k;
      Buffer.add_string buf ": ";
      match m with
      | Inline v -> to_buffer buf v
      | Items (f, items) ->
        add_sep buf ("[", ", ", "]") (fun x -> to_buffer buf (f x)) items
      | Rows (f, rows) ->
        add_sep buf ("[\n    ", ",\n    ", "\n  ]") (fun x -> to_buffer buf (f x)) rows)
    members;
  Buffer.contents buf
