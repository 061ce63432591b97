open! Import

let header = "# teesec corpus v1"

let line_of (tc : Testcase.t) =
  let p = tc.Testcase.params in
  Printf.sprintf "%s %d %d %d 0x%Lx"
    (Access_path.to_string tc.Testcase.path)
    p.Params.offset p.Params.width p.Params.variant p.Params.seed

let to_string testcases =
  String.concat "\n" (header :: List.map line_of testcases) ^ "\n"

let parse_line ~lineno ~id line =
  match String.split_on_char ' ' (String.trim line) with
  | [ path; offset; width; variant; seed ] -> (
    let path' =
      List.find_opt
        (fun p ->
          String.lowercase_ascii (Access_path.to_string p)
          = String.lowercase_ascii path)
        Access_path.all
    in
    match
      (path', int_of_string_opt offset, int_of_string_opt width,
       int_of_string_opt variant, Int64.of_string_opt seed)
    with
    | Some path, Some offset, Some width, Some variant, Some seed -> (
      match
        Assembler.assemble ~id path
          ~params:(Params.make ~offset ~width ~variant ~seed ())
      with
      | tc -> Ok tc
      | exception Assembler.Invalid_chain msg ->
        Error (Printf.sprintf "line %d: invalid gadget chain (%s)" lineno msg)
      | exception Invalid_argument msg ->
        Error (Printf.sprintf "line %d: %s" lineno msg))
    | None, _, _, _, _ ->
      Error (Printf.sprintf "line %d: unknown access path %S" lineno path)
    | _ -> Error (Printf.sprintf "line %d: malformed parameters" lineno))
  | _ ->
    Error
      (Printf.sprintf
         "line %d: expected 'PATH OFFSET WIDTH VARIANT SEED', got %S" lineno
         line)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno id acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) id acc rest
      else (
        match parse_line ~lineno ~id trimmed with
        | Ok tc -> go (lineno + 1) (id + 1) (tc :: acc) rest
        | Error _ as e -> e)
  in
  go 1 0 [] lines

let save ~path testcases =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string testcases))

(* Read by line rather than by channel length so [path] may be a pipe. *)
let load ~path =
  let ic = open_in_bin path in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_string buf (input_line ic);
       Buffer.add_char buf '\n'
     done
   with End_of_file -> ());
  close_in ic;
  of_string (Buffer.contents buf)
