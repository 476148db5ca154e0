(* The daemon under test and the closed-loop load generator.

   The daemon is the real [smem serve] executable, started with its
   defaults plus the deployment flags only ([--tcp], [--store]), so its
   worker count stays at the default of one.  The generator is a closed
   loop over one connection: each request is sent only after the reply
   to the previous one.  On a two-core box the daemon's reader and its
   worker already take both cores.  A second connection only queued
   behind the first: on serve-warm it doubled the median latency with
   no gain in throughput, and three runs in ten ran a third slower with
   three times the p99.  Replies are kept as raw lines and parsed after
   the timed window: client-side JSON work would otherwise be a visible
   share of a millisecond request. *)

module Clock = Smem_obs.Clock

type daemon = {
  pid : int;
  port : int;
  err : in_channel;  (** the daemon's stderr *)
  setup_s : float;  (** spawn until listening, store replay included *)
}

let listening_port line =
  let tag = "listening on tcp://" in
  let lt = String.length tag and n = String.length line in
  let rec find i =
    if i + lt > n then None
    else if String.sub line i lt = tag then
      match String.rindex_opt line ':' with
      | Some j -> int_of_string_opt (String.sub line (j + 1) (n - j - 1))
      | None -> None
    else find (i + 1)
  in
  find 0

(* Daemons spawned and not yet drained: killed on the way out, so a run
   that dies early leaves no process behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~smem ~store =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process smem
      [| smem; "serve"; "--tcp"; "127.0.0.1:0"; "--store"; store |]
      null null w
  in
  live := pid :: !live;
  Unix.close w;
  Unix.close null;
  let err = Unix.in_channel_of_descr r in
  let rec await seen =
    match input_line err with
    | line -> (
        match listening_port line with
        | Some port -> port
        | None -> await (line :: seen))
    | exception End_of_file ->
        ignore (Unix.waitpid [] pid);
        live := List.filter (( <> ) pid) !live;
        close_in_noerr err;
        failwith
          ("daemon exited before listening: "
          ^ String.concat " | " (List.rev seen))
  in
  let port = await [] in
  { pid; port; err; setup_s = float_of_int (Clock.now () - t0) *. 1e-9 }

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                List.filter (( <> ) "")
                  (String.split_on_char ' ' (String.trim v))
              with
              | [ kb; "kB" ] -> float_of_string kb /. 1024.
              | _ -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

let daemon_rss_mb d = peak_rss_mb (string_of_int d.pid)

(* SIGTERM, then wait for the drain.  [Error] when the daemon does not
   exit 0 with its "drained" farewell within the grace period. *)
let drain ?(grace_s = 30.) d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = Clock.now () + int_of_float (grace_s *. 1e9) in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid);
        None
    | _, status -> Some status
  in
  let status = wait () in
  live := List.filter (( <> ) d.pid) !live;
  let tail = try In_channel.input_all d.err with Sys_error _ -> "" in
  close_in_noerr d.err;
  let said_bye =
    let bye = "drained, bye" in
    let n = String.length tail and k = String.length bye in
    let rec has i = i + k <= n && (String.sub tail i k = bye || has (i + 1)) in
    has 0
  in
  match status with
  | Some (Unix.WEXITED 0) when said_bye -> Ok ()
  | Some (Unix.WEXITED c) -> Error (Printf.sprintf "daemon drain: exit %d" c)
  | Some (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "daemon drain: killed by signal %d" s)
  | None -> Error "daemon did not drain in time"

(* One request: the line's index, its client-side latency, and the raw
   reply ([None] when none arrived). *)
type sample = { index : int; latency_ns : int; reply : string option }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  fd

(* Drive [lines] through the daemon until every line was sent once
   ([cycle = false]) or, cycling, until [deadline_ns].  Returns the
   samples and the window: first send to last reply. *)
let run ~port ~lines ~cycle ~deadline_ns =
  let n = Array.length lines in
  let t0 = Clock.now () in
  let samples =
    match connect port with
    | exception Unix.Unix_error _ ->
        [ { index = 0; latency_ns = 0; reply = None } ]
    | fd ->
        let ic = Unix.in_channel_of_descr fd
        and oc = Unix.out_channel_of_descr fd in
        let rec loop i acc =
          if Clock.now () >= deadline_ns || ((not cycle) && i >= n) then acc
          else
            let index = i mod n in
            let t = Clock.now () in
            match
              output_string oc lines.(index);
              flush oc;
              input_line ic
            with
            | reply ->
                loop (i + 1)
                  ({ index; latency_ns = Clock.now () - t; reply = Some reply }
                  :: acc)
            | exception (End_of_file | Sys_error _ | Unix.Unix_error _) ->
                { index; latency_ns = 0; reply = None } :: acc
        in
        let samples = loop 0 [] in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        samples
  in
  (samples, Clock.now () - t0)
