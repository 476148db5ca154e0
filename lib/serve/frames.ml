(* A buffered NDJSON line reader over an abstract byte source.

   The server's batching bug was baked into [In_channel.input_line]:
   the channel cannot say whether another line is available without
   blocking, so a batch reader built on it must either block until the
   batch fills (head-of-line stall for request/response clients) or
   give up batching entirely.  Reading the bytes ourselves fixes that:
   [next] blocks for one line, [drain] takes whatever further complete
   lines can be had without blocking — the source's [readable] probe
   decides whether another [read] is safe.

   The source is abstract so the deterministic simulation harness
   ({!Smem_sim}) can feed a session from an in-memory channel with no
   descriptor underneath; [of_fd] wraps a real descriptor ([Unix.read]
   guarded by a zero-timeout [Unix.select]).

   Lines are split on '\n'; a trailing '\r' is dropped so CRLF clients
   work.  A final unterminated line is delivered at EOF.  For the fd
   source, [EINTR] is retried; [ECONNRESET]/[EPIPE] from a vanished
   peer count as EOF rather than tearing the server down. *)

type source = {
  read : Bytes.t -> int -> int -> int;
      (* like [Unix.read]: blocks for at least one byte, 0 = EOF *)
  readable : unit -> bool;
      (* would [read] return immediately, with bytes or EOF? *)
}

type t = {
  source : source;
  chunk : Bytes.t;
  pending : Buffer.t;  (* the start of a line not yet terminated *)
  lines : string Queue.t;  (* complete lines, oldest first *)
  mutable eof : bool;
}

let chunk_size = 65536

let of_source source =
  { source; chunk = Bytes.create chunk_size; pending = Buffer.create 256;
    lines = Queue.create (); eof = false }

(* Would a [read] on [fd] return immediately?  True for regular files
   always (so file-fed tests and closed pipes still batch up to the
   limit), and for sockets exactly when data or EOF is pending. *)
let source_of_fd fd =
  let rec read buf pos len =
    match Unix.read fd buf pos len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read buf pos len
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  let readable () =
    match Unix.select [ fd ] [] [] 0. with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  { read; readable }

let of_fd fd = of_source (source_of_fd fd)
let of_in_channel ic = of_fd (Unix.descr_of_in_channel ic)

let strip_cr l =
  let n = String.length l in
  if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l

(* Split the [n] bytes just read into [lines], scanning only them: the
   first newline completes the line begun in [pending], later ones
   delimit lines within the chunk, and the bytes after the last one
   start the next pending line.  Each byte is scanned once and copied
   at most twice, so a line costs time linear in its length however
   many reads deliver it. *)
let split_chunk t n =
  let rec go start i =
    if i = n then Buffer.add_subbytes t.pending t.chunk start (n - start)
    else if Bytes.get t.chunk i <> '\n' then go start (i + 1)
    else begin
      Buffer.add_subbytes t.pending t.chunk start (i - start);
      Queue.add (strip_cr (Buffer.contents t.pending)) t.lines;
      Buffer.reset t.pending;
      go (i + 1) (i + 1)
    end
  in
  go 0 0

let read_once t =
  match t.source.read t.chunk 0 chunk_size with
  | 0 -> t.eof <- true
  | n -> split_chunk t n

let readable_now t = t.source.readable ()

let pop t = Queue.take_opt t.lines

(* The unterminated tail, delivered once at EOF. *)
let pop_tail t =
  if Buffer.length t.pending = 0 then None
  else begin
    let l = Buffer.contents t.pending in
    Buffer.clear t.pending;
    Some l
  end

let rec next t =
  match pop t with
  | Some _ as l -> l
  | None ->
      if t.eof then pop_tail t
      else begin
        read_once t;
        next t
      end

let drain t ~max:limit =
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match pop t with
      | Some l -> go (l :: acc) (n + 1)
      | None ->
          if (not t.eof) && readable_now t then begin
            read_once t;
            go acc n
          end
          else
            match if t.eof then pop_tail t else None with
            | Some l -> go (l :: acc) (n + 1)
            | None -> List.rev acc
  in
  go [] 0
