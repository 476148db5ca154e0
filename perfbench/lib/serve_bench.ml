(* The two daemon workloads, untraced.

   serve-cold: every generated test once per round against a daemon
   started on an empty store, so every cell misses the cache; the
   search, store appends and certificates do the work.  A round ends
   when the corpus is exhausted and the next starts a fresh daemon, so
   the whole window stays cold.  Rounds run whole until [seconds] of
   window have passed.

   serve-warm: daemons restarted on a store primed (untimed) with the
   seed's whole corpus answer a hot set of those tests plus the
   builtin ones, cycled; every cell is a cache hit, so the request cost
   is parsing, digesting, lookup and encoding.  The window is split
   over [warm_sessions] daemons.

   Each daemon's window is a session, and every figure is the median
   over the run's sessions of that figure within a session, so one
   session caught in a slow spell of the host does not set the run's
   figures. *)

module Clock = Smem_obs.Clock

type config = {
  smem : string;  (** the daemon executable *)
  work : string;  (** scratch directory: corpus cache, stores, traces *)
  golden : (string * string, bool) Hashtbl.t;
  seed : int;
  seconds : float;
}

(* Spawns per run that measure set-up alone, before the timed window. *)
let setup_repeats = 15

let warm_sessions = 4

let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns *. 1e-9

let remove path = if Sys.file_exists path then Sys.remove path

(* One daemon's timed window. *)
type session = {
  window_ns : int;
  latencies : float array;  (** ms; failures as [infinity] *)
  ok_requests : int;
  cells : int;
}

type phase = {
  tally : Oracle.tally;
  mutable setups : float list;
  mutable rss : float list;
  mutable sessions : session list;
  mutable cached_cells : int;
}

let phase () =
  {
    tally = Oracle.tally ();
    setups = [];
    rss = [];
    sessions = [];
    cached_cells = 0;
  }

let spawn cfg ph ~store =
  let d = Load.spawn ~smem:cfg.smem ~store in
  ph.setups <- d.Load.setup_s :: ph.setups;
  d

let drain ph d =
  match Load.drain d with
  | Ok () -> Oracle.record ph.tally ~ok:true ~reason:""
  | Error why -> Oracle.record ph.tally ~ok:false ~reason:why

(* Judge every sample after the window. *)
let judge ph oracle (items : Inputs.item array) samples =
  List.fold_left
    (fun (ok, cells, lat) (s : Load.sample) ->
      let o = Oracle.judge oracle items.(s.Load.index) s.Load.reply in
      Oracle.record_outcome ph.tally o;
      if o.Oracle.ok then begin
        ph.cached_cells <- ph.cached_cells + o.Oracle.cached;
        ( ok + 1,
          cells + o.Oracle.cells,
          (float_of_int s.Load.latency_ns *. 1e-6) :: lat )
      end
      else (ok, cells, infinity :: lat))
    (0, 0, []) samples

(* One daemon: spawn on [store], drive [items], drain, judge. *)
let session cfg ph ~store ~items ~oracle ~cycle ~deadline_ns =
  let d = spawn cfg ph ~store in
  let samples, window_ns =
    Load.run ~port:d.Load.port
      ~lines:(Array.map (fun (it : Inputs.item) -> it.Inputs.line) items)
      ~cycle ~deadline_ns:(deadline_ns ())
  in
  ph.rss <- Load.daemon_rss_mb d :: ph.rss;
  drain ph d;
  let ok_requests, cells, lat = judge ph oracle items samples in
  ph.sessions <-
    { window_ns; latencies = Array.of_list lat; ok_requests; cells }
    :: ph.sessions

(* Repeated spawn-and-drain on [store] as it stands: set-up samples. *)
let measure_setups cfg ph ~store ~fresh =
  for _ = 1 to setup_repeats do
    if fresh then remove store;
    drain ph (spawn cfg ph ~store)
  done

let corpus cfg =
  Inputs.corpus ~cache_dir:cfg.work ~seed:cfg.seed ~count:Inputs.corpus_count ()

let cold_store cfg = Filename.concat cfg.work "cold.store"

(* A round is never cut short: the last one may end past the budget. *)
let round_limit_s = 150.

let window_ns ph = List.fold_left (fun a s -> a + s.window_ns) 0 ph.sessions

(* Whole cold rounds until [seconds] of request window have elapsed. *)
let cold_rounds cfg ph ~items ~oracle ~seconds =
  let store = cold_store cfg in
  while window_ns ph < ns_of_s seconds && ph.tally.Oracle.failures = 0 do
    remove store;
    session cfg ph ~store ~items ~oracle ~cycle:false ~deadline_ns:(fun () ->
        Clock.now () + ns_of_s round_limit_s)
  done;
  remove store

let warm_store cfg = Filename.concat cfg.work "warm.store"

(* Fill the warm store: every generated and builtin test, checked once
   by a daemon on an empty store.  Replies are judged for shape only:
   the oracle covers the hot set, which these cells include. *)
let prime cfg ph tests =
  let store = warm_store cfg in
  remove store;
  let items = Inputs.priming_items tests in
  let d = Load.spawn ~smem:cfg.smem ~store in
  let s, _ =
    Load.run ~port:d.Load.port
      ~lines:(Array.map (fun (it : Inputs.item) -> it.Inputs.line) items)
      ~cycle:false
      ~deadline_ns:(Clock.now () + ns_of_s round_limit_s)
  in
  drain ph d;
  ignore (judge ph (Oracle.create ()) items s)

(* Warm daemons answering the cycled hot set, [seconds] in all. *)
let warm_windows cfg ph ~items ~oracle ~seconds ~sessions =
  for _ = 1 to sessions do
    session cfg ph ~store:(warm_store cfg) ~items ~oracle ~cycle:true
      ~deadline_ns:(fun () ->
        Clock.now () + ns_of_s (seconds /. float_of_int sessions))
  done

let median_of = function [] -> nan | xs -> Pstats.median (Array.of_list xs)

let end_to_end ph =
  let per f = median_of (List.map f ph.sessions) in
  let rate n s = float_of_int n /. s_of_ns s.window_ns in
  let lat = List.map (fun s -> Pstats.summarize s.latencies) ph.sessions in
  let samples = List.fold_left (fun a l -> a + l.Pstats.n) 0 lat in
  let tail =
    List.fold_left (fun a l -> min a l.Pstats.tail_permille) 1000 lat
  in
  ( [
      Report.metric "throughput_rps" "1/s"
        (per (fun s -> rate s.ok_requests s));
      Report.metric "cells_per_s" "1/s" (per (fun s -> rate s.cells s));
      Report.metric "latency_p50_ms" "ms"
        (median_of (List.map (fun l -> l.Pstats.p50) lat));
      Report.metric "latency_p99_ms" "ms"
        (median_of (List.map (fun l -> l.Pstats.tail) lat));
      Report.metric "setup_s" "s" (median_of ph.setups);
      Report.metric "peak_rss_mb" "MiB" (median_of ph.rss);
    ],
    Format.asprintf
      "%d sessions, %d samples over %.3f s, lowest tail reported %a; \
       throughput per session %s; %d cells served from the cache"
      (List.length ph.sessions) samples
      (s_of_ns (window_ns ph))
      Pstats.pp_permille tail
      (String.concat " "
         (List.rev_map
            (fun s -> Printf.sprintf "%.0f" (rate s.ok_requests s))
            ph.sessions))
      ph.cached_cells )

let oracle_note (o : Oracle.t) =
  Printf.sprintf "oracle: %d cells checked independently, %d unchecked (tso-op)"
    o.Oracle.checked o.Oracle.unchecked

let cold cfg =
  let ph = phase () in
  let items = Inputs.cold_items ~seed:cfg.seed (corpus cfg) in
  let oracle = Oracle.of_items ~golden:cfg.golden items in
  measure_setups cfg ph ~store:(cold_store cfg) ~fresh:true;
  cold_rounds cfg ph ~items ~oracle ~seconds:cfg.seconds;
  let metrics, note = end_to_end ph in
  Report.of_tally ph.tally ~notes:[ note; oracle_note oracle ] metrics

let warm cfg =
  let ph = phase () in
  let tests = corpus cfg in
  let items = Inputs.warm_items ~seed:cfg.seed tests in
  let oracle = Oracle.of_items ~golden:cfg.golden items in
  prime cfg ph tests;
  measure_setups cfg ph ~store:(warm_store cfg) ~fresh:false;
  warm_windows cfg ph ~items ~oracle ~seconds:cfg.seconds
    ~sessions:warm_sessions;
  remove (warm_store cfg);
  let metrics, note = end_to_end ph in
  Report.of_tally ph.tally ~notes:[ note; oracle_note oracle ] metrics
