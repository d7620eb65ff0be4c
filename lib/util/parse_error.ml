type t = { file : string; line : int; msg : string }

let pp ppf e =
  if e.line = 0 then Format.fprintf ppf "%s: %s" e.file e.msg
  else Format.fprintf ppf "%s:%d: %s" e.file e.line e.msg

let to_string e = Format.asprintf "%a" pp e

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error msg ->
    (* [Sys_error] often names the path itself; [file] already does. *)
    let prefix = path ^ ": " in
    let msg =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix)
          (String.length msg - String.length prefix)
      else msg
    in
    Error { file = path; line = 0; msg }
