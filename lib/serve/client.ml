type t = { fd : Unix.file_descr }

let rpc_exn fd msg =
  Protocol.write_frame fd (Protocol.encode_client_msg msg);
  match Protocol.read_frame fd with
  | None -> failwith "server closed the connection"
  | Some frame -> Protocol.decode_server_msg frame

let rpc t msg =
  try Ok (rpc_exn t.fd msg)
  with exn -> Error (Printexc.to_string exn)

let connect ~socket_path =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      Ok fd
    with exn ->
      (try Unix.close fd with _ -> ());
      Error (Printexc.to_string exn)
  with
  | Error e -> Error (Printf.sprintf "cannot connect to %s: %s" socket_path e)
  | Ok fd -> (
    match
      try
        Ok
          (rpc_exn fd
             (Protocol.Hello
                {
                  proto = Protocol.protocol_version;
                  build = Protocol.build_version;
                }))
      with exn -> Error (Printexc.to_string exn)
    with
    | Ok (Protocol.Hello_ok _) -> Ok { fd }
    | Ok (Protocol.Hello_err reason) ->
      (try Unix.close fd with _ -> ());
      Error reason
    | Ok _ ->
      (try Unix.close fd with _ -> ());
      Error "unexpected handshake reply"
    | Error e ->
      (try Unix.close fd with _ -> ());
      Error e)

let connect_retry ?(attempts = 100) ?(delay = 0.05) ~socket_path () =
  let rec go n last =
    if n = 0 then
      Error
        (Printf.sprintf "daemon did not come up at %s: %s" socket_path last)
    else
      match connect ~socket_path with
      | Ok t -> Ok t
      | Error e ->
        (* A protocol mismatch will not heal by waiting. *)
        if
          String.length e >= 17
          && String.sub e 0 17 = "protocol mismatch"
        then Error e
        else begin
          Unix.sleepf delay;
          go (n - 1) e
        end
  in
  go attempts "no attempt made"

let submit ?(trace = false) ?(wave = false) t spec =
  match rpc t (Protocol.Submit { spec; trace; wave }) with
  | Ok (Protocol.Submitted js) -> Ok js
  | Ok (Protocol.Error_msg e) -> Error e
  | Ok _ -> Error "unexpected reply to submit"
  | Error e -> Error e

let status t =
  match rpc t Protocol.Status with
  | Ok (Protocol.Status_report st) -> Ok st
  | Ok (Protocol.Error_msg e) -> Error e
  | Ok _ -> Error "unexpected reply to status"
  | Error e -> Error e

type artifact = { data : string; trace : string option; wave : string option }

let results ?(wait = true) t job =
  match rpc t (Protocol.Results { job; wait }) with
  | Ok (Protocol.Artifact { data; trace; wave; _ }) ->
    Ok (Ok { data; trace; wave })
  | Ok (Protocol.Pending js) -> Ok (Error js)
  | Ok (Protocol.Failed { reason; _ }) -> Error reason
  | Ok (Protocol.Error_msg e) -> Error e
  | Ok _ -> Error "unexpected reply to results"
  | Error e -> Error e

let shutdown t =
  match rpc t Protocol.Shutdown with
  | Ok Protocol.Shutting_down -> Ok ()
  | Ok (Protocol.Error_msg e) -> Error e
  | Ok _ -> Error "unexpected reply to shutdown"
  | Error e -> Error e

let close t = try Unix.close t.fd with _ -> ()
