(** Worker processes seen from the driver: spawn, send a command, read a
    reply line under a deadline, kill. *)

let now () = Diagres_telemetry.Telemetry.now_ns ()
let ns_of_s s = Int64.of_float (s *. 1e9)
let ms_of_ns ns = Int64.to_float ns /. 1e6

type t = {
  pid : int;
  to_worker : out_channel;
  from_worker : Unix.file_descr;
  pending : Buffer.t;  (** bytes read past the last complete line *)
  mutable alive : bool;
}

(** The benchmark executable the workers run ([bench.exe]). *)
let exe = ref Sys.executable_name

(** Start [!exe] with [args] as a worker. *)
let spawn args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = !exe in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_worker = Unix.out_channel_of_descr in_w; from_worker = out_r;
    pending = Buffer.create 4096; alive = true }

let take_line t =
  let s = Buffer.contents t.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear t.pending;
    Buffer.add_string t.pending
      (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.sub s 0 i)

(** The next reply line, waiting until monotonic time [deadline] (ns). *)
let read_line t ~deadline : [ `Line of string | `Timeout | `Eof ] =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match take_line t with
    | Some l -> `Line l
    | None -> (
      let left = Int64.sub deadline (now ()) in
      if left <= 0L then `Timeout
      else
        match
          Unix.select [ t.from_worker ] [] [] (Int64.to_float left /. 1e9)
        with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read t.from_worker chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes t.pending chunk 0 n;
            go ()))
  in
  go ()

let send t cmd =
  output_string t.to_worker (cmd ^ "\n");
  flush t.to_worker

let close_fds t =
  (try close_out t.to_worker with Sys_error _ -> ());
  try Unix.close t.from_worker with Unix.Unix_error _ -> ()

let reap t =
  if t.alive then begin
    t.alive <- false;
    close_fds t;
    ignore (Unix.waitpid [] t.pid : int * Unix.process_status)
  end

(** Kill the worker and wait until it has ended. *)
let kill t =
  if t.alive then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap t

(** Ask the worker to exit; returns its reported peak RSS in KiB, or
    [None] if it did not answer within [timeout_s] (it is killed then). *)
let quit t ~timeout_s =
  match
    (try send t "quit"; read_line t ~deadline:(Int64.add (now ()) (ns_of_s timeout_s))
     with Sys_error _ -> `Eof)
  with
  | `Line l -> (
    reap t;
    match String.split_on_char '=' l with
    | [ "bye rss_kb"; kb ] -> int_of_string_opt kb
    | _ -> None)
  | `Timeout | `Eof ->
    kill t;
    None
