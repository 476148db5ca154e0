(* The paper workload: recompute the paper's own results in-process.

   A round is the requests a user of the CLI makes to reproduce them:
   one Figure-5 lattice recompute ([smem lattice]: every history of the
   standard scopes classified under SC, TSO, PC, causal and PRAM), then
   the §5 mutual-exclusion sweep ([smem mutex]: bakery(3), Peterson and
   Dekker, properly labeled, on each of the nine machines).  Everything
   runs at the CLI default of one job.  This is the only workload that
   runs the lattice, lang and machine layers; it checks many tiny
   histories with no canonical digest, cache or wire format.

   The inputs are the paper's, so they do not depend on the seed. *)

module Clock = Smem_obs.Clock
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Enumerate = Smem_lattice.Enumerate
module Classify = Smem_lattice.Classify
module Machines = Smem_machine.Machines
module Programs = Smem_lang.Programs
module Explore = Smem_lang.Explore
module Dpor = Smem_lang.Dpor

type setup = {
  models : Model.t list;
  scopes : Enumerate.config list;
  machines : Smem_machine.Machine_sig.machine list;
  programs : (string * Smem_lang.Ast.program) list;
}

let model_keys = [ "sc"; "tso"; "pc"; "causal"; "pram" ]

let machine_names =
  [ "sc"; "tso"; "pc-g"; "causal"; "pram"; "slow"; "local"; "rc-sc"; "rc-pc" ]

(* What the paper states: Figure 5's Hasse diagram over its five
   models, and §5: mutual exclusion holds exactly where labeled
   accesses are sequentially consistent. *)
let expected_hasse =
  [
    ("causal", "pram");
    ("pc", "pram");
    ("sc", "tso");
    ("tso", "causal");
    ("tso", "pc");
  ]

let mutex_holds_on = [ "sc"; "rc-sc" ]

let resolve () =
  {
    models =
      List.map
        (fun k ->
          match Registry.resolve k with Ok m -> m | Error e -> failwith e)
        model_keys;
    scopes = Classify.standard_scopes;
    machines =
      List.map
        (fun n ->
          match Machines.find n with
          | Some m -> m
          | None -> failwith ("no machine " ^ n))
        machine_names;
    programs =
      [
        ("bakery3", Programs.bakery ~labeled:true ~n:3 ());
        ("peterson", Programs.peterson ~labeled:true ());
        ("dekker", Programs.dekker ~labeled:true ());
      ];
  }

let time f =
  let t0 = Clock.now () in
  let r = f () in
  (r, float_of_int (Clock.now () - t0) *. 1e-9)

(* Set-up samples: resolution repeated, median reported. *)
let setup_repeats = 100

let hasse_keys (m : Classify.matrix) =
  let keys =
    Array.of_list
      (List.map (fun (x : Model.t) -> x.Model.key) m.Classify.models)
  in
  List.sort compare
    (List.map (fun (i, j) -> (keys.(i), keys.(j))) (Classify.hasse_edges m))

let lattice s = Classify.classify_scopes ~jobs:1 ~models:s.models s.scopes

let lattice_ok m = hasse_keys m = expected_hasse

let mutex_ok ~machine verdict =
  match verdict with
  | Explore.Safe _ -> List.mem machine mutex_holds_on
  | Explore.Violation _ -> not (List.mem machine mutex_holds_on)
  | Explore.State_limit -> false

(* Every (algorithm, machine) exploration of the sweep, in order. *)
let sweep s f =
  List.concat_map
    (fun (alg, program) ->
      List.map
        (fun machine -> f ~alg ~name:(Machines.name machine) machine program)
        s.machines)
    s.programs

let run ~seconds =
  let setups = List.init setup_repeats (fun _ -> snd (time resolve)) in
  let s = resolve () in
  let tally = Oracle.tally () in
  let latencies = ref [] and lattice_s = ref [] and explore_s = ref [] in
  let cells = ref 0 and requests = ref 0 in
  let request ~ok ~reason ~n_cells dt =
    Oracle.record tally ~ok ~reason;
    latencies := (if ok then dt *. 1e3 else infinity) :: !latencies;
    if ok then begin
      incr requests;
      cells := !cells + n_cells
    end
  in
  let t0 = Clock.now () in
  let elapsed () = float_of_int (Clock.now () - t0) *. 1e-9 in
  while
    (!lattice_s = [] || elapsed () < seconds) && tally.Oracle.failures = 0
  do
    let m, dt = time (fun () -> lattice s) in
    lattice_s := dt :: !lattice_s;
    request ~ok:(lattice_ok m)
      ~reason:"lattice: Hasse edges differ from Figure 5"
      ~n_cells:(m.Classify.total * List.length s.models)
      dt;
    let sweep_times =
      sweep s (fun ~alg ~name machine program ->
          let (verdict, _), dt =
            time (fun () -> Explore.check_mutex_stats machine program)
          in
          request ~ok:(mutex_ok ~machine:name verdict)
            ~reason:(Printf.sprintf "mutex %s on %s: wrong verdict" alg name)
            ~n_cells:1 dt;
          dt)
    in
    explore_s := List.fold_left ( +. ) 0. sweep_times :: !explore_s
  done;
  let window = elapsed () in
  let lat = Pstats.summarize (Array.of_list !latencies) in
  let median xs = Pstats.median (Array.of_list xs) in
  Report.of_tally tally
    ~notes:
      [
        Format.asprintf
          "paper: %d rounds in %.3f s; lattice %.4f s, explore sweep %.4f s \
           (medians); latency over %d requests, tail reported is %a"
          (List.length !lattice_s) window (median !lattice_s)
          (median !explore_s)
          lat.Pstats.n Pstats.pp_permille lat.Pstats.tail_permille;
        "lattice rounds: "
        ^ String.concat " " (List.rev_map (Printf.sprintf "%.3f") !lattice_s);
      ]
    [
      Report.metric "throughput_rps" "1/s" (float_of_int !requests /. window);
      Report.metric "cells_per_s" "1/s" (float_of_int !cells /. window);
      Report.metric "latency_p50_ms" "ms" lat.Pstats.p50;
      Report.metric "latency_p99_ms" "ms" lat.Pstats.tail;
      Report.metric "setup_s" "s" (median setups);
      Report.metric "peak_rss_mb" "MiB" (Load.peak_rss_mb "self");
    ]
