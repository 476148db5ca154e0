(* The traced run: per-layer costs, measured from the benchmark's side.

   For a daemon workload it first drives the daemon briefly, untraced,
   for the client-side median latency; then it replays the workload's
   inputs in-process, each request twice on fresh caches and stores of
   its own: through [Service.handle], with the wire parse and encode
   around it, as the daemon runs it; and through the layer calls
   [Service.handle] makes, made one by one and timed each.  The first
   such pass, untraced, gives the per-layer figures.  Untraced passes
   alternate with passes that arm the {!Smem_obs.Trace} sink, with a
   span around every call tagged with its request's index; those write
   the Chrome trace file and give the tracing overhead.

   The paper workload gets an untraced pass over all of its lattice and
   exploration calls for the figures, and alternating traced and
   untraced passes over the sweep, the enumeration and the Figure-1
   scope's classification for the trace file and the overhead.  Classifying
   every scope traced would record about 640k events from the spans
   inside the checkers: a 78 MB file and some 700 MB of memory.

   Counts come from {!Smem_core.Stats} and {!Smem_lang.Dpor} deltas
   taken at the same boundaries; they repeat exactly for a seed.
   Metrics of layers a workload does not run are reported as 0. *)

module Clock = Smem_obs.Clock
module Trace = Smem_obs.Trace
module Json = Smem_obs.Json
module Stats = Smem_core.Stats
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Store = Smem_serve.Store
module Service = Smem_serve.Service
module Request = Smem_api.Request
module Wire = Smem_api.Wire
module Test = Smem_litmus.Test
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel
module Enumerate = Smem_lattice.Enumerate
module Classify = Smem_lattice.Classify
module Explore = Smem_lang.Explore
module Dpor = Smem_lang.Dpor

(* Every per-layer metric, in report order, with its unit. *)
let metrics =
  [
    ("api.parse_us", "us");
    ("litmus.parse_us", "us");
    ("api.encode_us", "us");
    ("canon.digest_us", "us");
    ("cache.find_us", "us");
    ("cache.hit_ratio", "ratio");
    ("store.append_us", "us");
    ("store.bytes_per_cell", "bytes");
    ("store.replay_s", "s");
    ("core.check_us", "us");
    ("core.check_p99_us", "us");
    ("core.rf_candidates", "count");
    ("core.co_candidates", "count");
    ("core.pruned", "count");
    ("core.toposorts", "count");
    ("cert.certify_us", "us");
    ("cert.verify_us", "us");
    ("serve.handle_us", "us");
    ("serve.unattributed_us", "us");
    ("serve.transport_us", "us");
    ("lattice.enumerate_s", "s");
    ("lattice.classify_s", "s");
    ("lattice.histories", "count");
    ("lang.explore_s.bakery3", "s");
    ("lang.explore_s.peterson", "s");
    ("lang.explore_s.dekker", "s");
    ("lang.states", "count");
    ("lang.transitions", "count");
    ("lang.sleep_skips", "count");
    ("lang.covering_skips", "count");
    ("trace.overhead_frac", "ratio");
  ]

let report tally ~notes values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name metrics) then
        invalid_arg ("Layers.report: undeclared metric " ^ name))
    values;
  Report.of_tally tally ~notes
    (List.map
       (fun (name, unit) ->
         Report.metric name unit
           (Option.value ~default:0. (List.assoc_opt name values)))
       metrics)

let elapsed_us t0 = float_of_int (Clock.now () - t0) *. 1e-3

let time_us f =
  let t0 = Clock.now () in
  let r = f () in
  (r, elapsed_us t0)

let time_s = Paper.time

let median = function [] -> 0. | xs -> Pstats.median (Array.of_list xs)

let p99 = function
  | [] -> 0.
  | xs ->
      Pstats.percentile_sorted (Pstats.sorted (Array.of_list xs)) ~permille:990

(* Per-layer samples of one pass, by metric name. *)
type acc = {
  samples : (string, float list) Hashtbl.t;
  mutable finds : int;
  mutable hits : int;
  mutable search : Stats.snapshot list;  (** Stats deltas around checks *)
}

let acc () = { samples = Hashtbl.create 16; finds = 0; hits = 0; search = [] }

let add acc name v =
  Hashtbl.replace acc.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt acc.samples name))

let samples acc name =
  Option.value ~default:[] (Hashtbl.find_opt acc.samples name)

(* ------------------------------------------------------------------ *)
(* Daemon workloads                                                    *)

(* Cold requests replayed in-process: enough for stable medians while
   the three passes stay within a few seconds. *)
let cold_replay = 300

let cache_capacity = 65536 (* the daemon's default *)

let copy_file src dst =
  Inputs.write_file_atomic dst (Inputs.read_file src)

(* A fresh cache and store for one pass: empty for cold, a copy of the
   primed store for warm.  Returns the store's replay time. *)
let fresh_state cfg ~warm ~name =
  let path = Filename.concat cfg.Serve_bench.work (name ^ ".store") in
  Serve_bench.remove path;
  if warm then copy_file (Serve_bench.warm_store cfg) path;
  let cache = Cache.create ~capacity:cache_capacity () in
  let store, dt = time_s (fun () -> Store.attach ~path cache) in
  (cache, store, dt)

let file_size path = (Unix.stat path).Unix.st_size

(* Time [f] as the named layer call of request [req]: a span when the
   trace sink is armed, and a sample in [acc] either way. *)
let layer acc ~req name f =
  Trace.span ~cat:"layer" ~args:[ ("req", Json.Int req) ] name (fun () ->
      let r, us = time_us f in
      add acc name us;
      (r, us))

let strip_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* One request the way the daemon runs it: wire parse, [Service.handle],
   encode.  Returns the reply line and the handle time. *)
let through_service acc svc ~req line =
  match
    fst (layer acc ~req "api.parse" (fun () -> Wire.parse_request_line line))
  with
  | Error e -> Error e
  | Ok (id, proto, r) ->
      let resp, handle_us =
        layer acc ~req "serve.handle" (fun () -> Service.handle ?id svc r)
      in
      let reply, _ =
        layer acc ~req "api.encode" (fun () -> Wire.response_line ~proto resp)
      in
      Ok (strip_newline reply, handle_us)

(* The layer calls [Service.handle] makes for one request, made here one
   by one on [cache].  Returns the request's summed layer time. *)
let replica acc ~cache ~req line =
  let total = ref 0. in
  let timed name f =
    let r, us = layer acc ~req name f in
    total := !total +. us;
    r
  in
  let test = function
    | Request.Named name -> (
        match timed "litmus.parse" (fun () -> Smem_litmus.Corpus.find name) with
        | Some t -> t
        | None -> failwith ("unknown test " ^ name))
    | Request.Inline text -> (
        match
          timed "litmus.parse" (fun () ->
              Smem_litmus.Parse.test_of_string text)
        with
        | Ok t -> t
        | Error _ -> failwith "unparseable test")
  in
  let model key =
    match Registry.resolve key with Ok m -> m | Error e -> failwith e
  in
  (match Wire.parse_request_line line with
  | Ok (_, _, Request.Check { test = source; models }) ->
      let h = (test source).Test.history in
      let models =
        if models = [] then Registry.all else List.map model models
      in
      List.iter
        (fun (m : Model.t) ->
          let digest = timed "canon.digest" (fun () -> Canon.digest h) in
          acc.finds <- acc.finds + 1;
          match
            timed "cache.find" (fun () ->
                Cache.find cache ~digest ~model:m.Model.key)
          with
          | Some _ -> acc.hits <- acc.hits + 1
          | None ->
              let before = Stats.snapshot () in
              let v = timed "core.check" (fun () -> Model.check m h) in
              acc.search <- Stats.diff (Stats.snapshot ()) before :: acc.search;
              timed "store.append" (fun () ->
                  Cache.add cache ~digest ~model:m.Model.key v))
        models
  | Ok (_, _, Request.Certify { test = source; model = key; _ }) -> (
      let t = test source in
      match
        timed "cert.certify" (fun () ->
            Cert.certify (model key) ~name:t.Test.name t.Test.history)
      with
      | Some c -> ignore (timed "cert.verify" (fun () -> Kernel.verify c))
      | None -> failwith ("uncertifiable model " ^ key))
  | Ok _ -> failwith "unexpected request kind"
  | Error e -> failwith e);
  !total

type serve_pass = {
  acc : acc;
  unattributed : float list;  (** per request: handle minus its layer calls *)
  appended : int;  (** store records the replica appended *)
  bytes : int;  (** bytes they took *)
  replays : float list;  (** store replay times, s *)
  wall_s : float;
}

(* Every replayed request through the service and through the replica,
   each on its own fresh cache and store; replies judged afterwards. *)
let serve_pass cfg ~warm ~tally ~oracle (replay : Inputs.item array) =
  let acc = acc () in
  let svc_cache, svc_store, replay_svc =
    fresh_state cfg ~warm ~name:"service"
  in
  let svc = Service.create ~cache:svc_cache () in
  let cache, store, replay_layers = fresh_state cfg ~warm ~name:"layers" in
  let size0 = file_size (Store.path store) in
  let results, wall_s =
    time_s (fun () ->
        Array.mapi
          (fun req (it : Inputs.item) ->
            match through_service acc svc ~req it.Inputs.line with
            | Error e -> Error e
            | Ok (reply, handle_us) ->
                let layers = replica acc ~cache ~req it.Inputs.line in
                Ok (reply, handle_us -. layers))
          replay)
  in
  Store.close svc_store;
  Store.close store;
  let bytes = file_size (Store.path store) - size0 in
  List.iter (fun s -> Serve_bench.remove (Store.path s)) [ svc_store; store ];
  let unattributed = ref [] in
  Array.iteri
    (fun i -> function
      | Error e -> Oracle.record tally ~ok:false ~reason:e
      | Ok (reply, un) ->
          Oracle.record_outcome tally
            (Oracle.judge oracle replay.(i) (Some reply));
          unattributed := un :: !unattributed)
    results;
  {
    acc;
    unattributed = !unattributed;
    appended = Store.appended store;
    bytes;
    replays = [ replay_svc; replay_layers ];
    wall_s;
  }

let sum_search deltas f = List.fold_left (fun a d -> a + f d) 0 deltas

(* Untraced and traced runs of one pass, alternated; the trace file keeps
   the last traced run.  The overhead is the ratio of their median wall
   times: one pair of sub-second passes is too noisy to read. *)
let overhead_pairs = 3

let alternate ~file pass =
  List.split
    (List.init overhead_pairs (fun _ ->
         let untraced = pass () in
         Trace.start ~file ();
         let traced = pass () in
         Trace.stop ();
         (untraced, traced)))

let overhead ~wall untraced traced =
  (median (List.map wall traced) /. median (List.map wall untraced)) -. 1.

let serve cfg ~warm =
  let ph = Serve_bench.phase () in
  let tally = ph.Serve_bench.tally in
  let tests = Serve_bench.corpus cfg in
  let seed = cfg.Serve_bench.seed in
  let items =
    if warm then Inputs.warm_items ~seed tests
    else Inputs.cold_items ~seed tests
  in
  let oracle = Oracle.of_items ~golden:cfg.Serve_bench.golden items in
  let daemon_seconds = Float.min cfg.Serve_bench.seconds 3. in
  if warm then begin
    Serve_bench.prime cfg ph tests;
    Serve_bench.warm_windows cfg ph ~items ~oracle ~seconds:daemon_seconds
      ~sessions:1
  end
  else Serve_bench.cold_rounds cfg ph ~items ~oracle ~seconds:daemon_seconds;
  let client_us =
    median
      (List.concat_map
         (fun (x : Serve_bench.session) ->
           Array.to_list x.Serve_bench.latencies)
         ph.Serve_bench.sessions)
    *. 1e3
  in
  let replay =
    if warm then items
    else Array.sub items 0 (min cold_replay (Array.length items))
  in
  let trace_file =
    Filename.concat cfg.Serve_bench.work
      (Printf.sprintf "trace-serve-%s.json" (if warm then "warm" else "cold"))
  in
  let untraced, traced =
    alternate ~file:trace_file (fun () ->
        serve_pass cfg ~warm ~tally ~oracle replay)
  in
  let p = List.hd untraced in
  Serve_bench.remove (Serve_bench.warm_store cfg);
  let a = p.acc in
  let m name = median (samples a name) in
  let search f = float_of_int (sum_search a.search f) in
  let parse_us = m "api.parse" and handle_us = m "serve.handle" in
  let encode_us = m "api.encode" in
  let values =
    [
      ("api.parse_us", parse_us);
      ("litmus.parse_us", m "litmus.parse");
      ("api.encode_us", encode_us);
      ("canon.digest_us", m "canon.digest");
      ("cache.find_us", m "cache.find");
      ( "cache.hit_ratio",
        if a.finds = 0 then 0.
        else float_of_int a.hits /. float_of_int a.finds );
      ("store.append_us", m "store.append");
      ( "store.bytes_per_cell",
        if p.appended = 0 then 0.
        else float_of_int p.bytes /. float_of_int p.appended );
      ( "store.replay_s",
        median (List.concat_map (fun p -> p.replays) (untraced @ traced)) );
      ("core.check_us", m "core.check");
      ("core.check_p99_us", p99 (samples a "core.check"));
      ("core.rf_candidates", search (fun d -> d.Stats.rf_candidates));
      ("core.co_candidates", search (fun d -> d.Stats.co_candidates));
      ("core.pruned", search (fun d -> d.Stats.pruned));
      ("core.toposorts", search (fun d -> d.Stats.toposorts));
      ("cert.certify_us", m "cert.certify");
      ("cert.verify_us", m "cert.verify");
      ("serve.handle_us", handle_us);
      ("serve.unattributed_us", median p.unattributed);
      ("serve.transport_us", client_us -. (parse_us +. handle_us +. encode_us));
      ( "trace.overhead_frac",
        overhead ~wall:(fun (p : serve_pass) -> p.wall_s) untraced traced );
    ]
  in
  report tally values
    ~notes:
      [
        Printf.sprintf
          "layers: %d requests replayed in-process; client median %.1f us over \
           %d daemon requests; trace written to %s"
          (Array.length replay) client_us
          (List.fold_left
             (fun n (x : Serve_bench.session) ->
               n + Array.length x.Serve_bench.latencies)
             0 ph.Serve_bench.sessions)
          trace_file;
        Serve_bench.oracle_note oracle;
      ]

(* ------------------------------------------------------------------ *)
(* Paper workload                                                      *)

type paper_pass = {
  explore_s : (string * float) list;  (** per algorithm, summed over machines *)
  dpor : Dpor.stats list;
  enumerate_s : float;
  classify_s : float;
  matrix : Classify.matrix;
  search : Stats.snapshot;  (** Stats delta around the classification *)
  mutex_ok : bool;
  wall_s : float;
}

let paper_pass (s : Paper.setup) ~scopes =
  let span name f = Trace.span ~cat:"layer" name f in
  let t0 = Clock.now () in
  let runs =
    Paper.sweep s (fun ~alg ~name machine program ->
        let (verdict, stats), dt =
          time_s (fun () ->
              span ("lang.explore:" ^ alg ^ "@" ^ name) (fun () ->
                  Explore.check_mutex_stats machine program))
        in
        (alg, dt, stats, Paper.mutex_ok ~machine:name verdict))
  in
  let explore_s =
    List.map
      (fun (alg, _) ->
        ( alg,
          List.fold_left
            (fun acc (a, dt, _, _) -> if a = alg then acc +. dt else acc)
            0. runs ))
      s.Paper.programs
  in
  let (), enumerate_s =
    time_s (fun () ->
        List.iter
          (fun scope ->
            span "lattice.enumerate" (fun () -> Enumerate.iter scope ~f:ignore))
          s.Paper.scopes)
  in
  let before = Stats.snapshot () in
  let matrix, classify_s =
    time_s (fun () ->
        span "lattice.classify" (fun () ->
            Classify.classify_scopes ~jobs:1 ~models:s.Paper.models scopes))
  in
  let search = Stats.diff (Stats.snapshot ()) before in
  {
    explore_s;
    dpor = List.map (fun (_, _, st, _) -> st) runs;
    enumerate_s;
    classify_s;
    matrix;
    search;
    mutex_ok = List.for_all (fun (_, _, _, ok) -> ok) runs;
    wall_s = float_of_int (Clock.now () - t0) *. 1e-9;
  }

(* Each lattice cell checked directly, for the per-cell check time. *)
let check_cells (s : Paper.setup) =
  let times = ref [] in
  List.iter
    (fun scope ->
      Enumerate.iter scope ~f:(fun h ->
          List.iter
            (fun m ->
              let _, us = time_us (fun () -> Model.check m h) in
              times := us :: !times)
            s.Paper.models))
    s.Paper.scopes;
  !times

let paper cfg =
  let s = Paper.resolve () in
  let tally = Oracle.tally () in
  let untraced = paper_pass s ~scopes:s.Paper.scopes in
  Oracle.record tally ~ok:(Paper.lattice_ok untraced.matrix)
    ~reason:"paper: the Hasse edges differ from Figure 5";
  let cells = check_cells s in
  let slice = [ List.hd s.Paper.scopes ] in
  let trace_file = Filename.concat cfg.Serve_bench.work "trace-paper.json" in
  let baselines, traced =
    alternate ~file:trace_file (fun () -> paper_pass s ~scopes:slice)
  in
  List.iter
    (fun (p : paper_pass) ->
      Oracle.record tally ~ok:p.mutex_ok
        ~reason:"paper: a mutual-exclusion verdict differs from section 5")
    ((untraced :: baselines) @ traced);
  let sum f =
    float_of_int (List.fold_left (fun a st -> a + f st) 0 untraced.dpor)
  in
  let d = untraced.search in
  report tally
    ~notes:
      [
        "layers: paper passes traced and untraced; trace written to "
        ^ trace_file;
      ]
    ([
       ("core.check_us", median cells);
       ("core.check_p99_us", p99 cells);
       ("core.rf_candidates", float_of_int d.Stats.rf_candidates);
       ("core.co_candidates", float_of_int d.Stats.co_candidates);
       ("core.pruned", float_of_int d.Stats.pruned);
       ("core.toposorts", float_of_int d.Stats.toposorts);
       ("lattice.enumerate_s", untraced.enumerate_s);
       ("lattice.classify_s", untraced.classify_s);
       ("lattice.histories", float_of_int untraced.matrix.Classify.total);
       ("lang.states", sum (fun st -> st.Dpor.states));
       ("lang.transitions", sum (fun st -> st.Dpor.transitions));
       ("lang.sleep_skips", sum (fun st -> st.Dpor.sleep_skips));
       ("lang.covering_skips", sum (fun st -> st.Dpor.covering_skips));
       ( "trace.overhead_frac",
         overhead ~wall:(fun (p : paper_pass) -> p.wall_s) baselines traced );
     ]
    @ List.map
        (fun (alg, dt) -> ("lang.explore_s." ^ alg, dt))
        untraced.explore_s)
