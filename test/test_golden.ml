(* Golden conformance suite.  With no argument: print the verdict of
   every model on every corpus test, one line per cell, in a stable
   order (diffed against test/golden/verdicts.expected).  With
   [witnesses]: print, per cell, an MD5 of the witness the default
   engine finds (its views, reads-from map and labeled order) or [-]
   when the cell is forbidden, then one trailer line per model with the
   search-work counters that model spent over the whole corpus (diffed
   against test/golden/witnesses.expected).  The second file pins what
   the verdict matrix cannot: which witness each search returns and how
   many candidates it walked to get there.  With [lattice]: the
   Figure-5 classification of the paper's five models over the standard
   scopes (counts, pairwise relations with their first example
   witnesses, Hasse edges) and its Graphviz rendering, diffed against
   test/golden/lattice.expected together with the [smem lattice]
   summary.  With [explore]: for each classic program on each
   operational machine, the DPOR mutex verdict with every reduction
   counter, the naive verdict and transition count, the
   deadlock-freedom verdict, one seeded
   random run, and for the loop-free shapes the reduced and naive
   trace-enumeration counts; then the SC race verdict per program
   (diffed against test/golden/explore.expected).  After an intentional
   change, regenerate with

     dune runtest --auto-promote

   and review the diff like any other source change.  An unintentional
   diff here is a conformance regression. *)

module Model = Smem_core.Model
module Stats = Smem_core.Stats
module Witness = Smem_core.Witness
module Test = Smem_litmus.Test

let verdicts () =
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (m : Model.t) ->
          Printf.printf "%-18s %-12s %s\n" t.Test.name m.Model.key
            (if Model.check m t.Test.history then "allowed" else "forbidden"))
        Smem_core.Registry.all)
    Smem_litmus.Corpus.all

let ids l = String.concat "," (List.map string_of_int l)

let witness_digest (w : Witness.t) =
  let b = Buffer.create 128 in
  List.iter
    (fun (p, seq) -> Printf.bprintf b "view %d: %s\n" p (ids seq))
    w.Witness.views;
  List.iter (fun (r, w) -> Printf.bprintf b "rf %d<-%d\n" r w) w.Witness.rf;
  (match w.Witness.sync with
  | Some seq -> Printf.bprintf b "sync %s\n" (ids seq)
  | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents b))

let witnesses () =
  let models = Smem_core.Registry.all in
  let work = Hashtbl.create 32 in
  let zero = Stats.diff (Stats.snapshot ()) (Stats.snapshot ()) in
  List.iter
    (fun (t : Test.t) ->
      List.iter
        (fun (m : Model.t) ->
          let before = Stats.snapshot () in
          let w = Model.witness_of m t.Test.history in
          let d = Stats.diff (Stats.snapshot ()) before in
          let a =
            Option.value (Hashtbl.find_opt work m.Model.key) ~default:zero
          in
          Hashtbl.replace work m.Model.key
            {
              a with
              Stats.rf_candidates = a.Stats.rf_candidates + d.Stats.rf_candidates;
              co_candidates = a.Stats.co_candidates + d.Stats.co_candidates;
              pruned = a.Stats.pruned + d.Stats.pruned;
              toposorts = a.Stats.toposorts + d.Stats.toposorts;
            };
          Printf.printf "%-18s %-12s %s\n" t.Test.name m.Model.key
            (match w with Some w -> witness_digest w | None -> "-"))
        models)
    Smem_litmus.Corpus.all;
  List.iter
    (fun (m : Model.t) ->
      let s = Hashtbl.find work m.Model.key in
      Printf.printf "work %-26s rf %d co %d pruned %d toposorts %d\n"
        m.Model.key s.Stats.rf_candidates s.Stats.co_candidates s.Stats.pruned
        s.Stats.toposorts)
    models

let lattice () =
  let module Classify = Smem_lattice.Classify in
  let m =
    Classify.classify_scopes ~models:Smem_core.Registry.comparable
      Classify.standard_scopes
  in
  Format.printf "%a@." Classify.pp_summary m;
  (* Every separation's first witness, not only the ones the summary
     names: the classification must keep the enumeration-order first. *)
  let keys = Array.of_list m.Classify.models in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j w ->
          match w with
          | None -> ()
          | Some h ->
              let module H = Smem_core.History in
              Format.printf "%s not %s (%d): %s@." keys.(i).Model.key
                keys.(j).Model.key m.Classify.only_in.(i).(j)
                (String.concat " | "
                   (List.init (H.nprocs h) (fun p ->
                        Format.asprintf "%a" (H.pp_ops h)
                          (Array.to_list (H.proc_ops h p))))))
        row)
    m.Classify.witness;
  print_string (Classify.to_dot m)

module Lang = Smem_lang
module Machines = Smem_machine.Machines

let md5 s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let pp_verdict ppf = function
  | Lang.Explore.Safe n -> Format.fprintf ppf "safe %d" n
  | Lang.Explore.Violation trace ->
      Format.fprintf ppf "violation %d steps %s" (List.length trace)
        (md5 (String.concat "\n" trace))
  | Lang.Explore.State_limit -> Format.fprintf ppf "state-limit"

let history_line h =
  let module H = Smem_core.History in
  String.concat " | "
    (List.init (H.nprocs h) (fun p ->
         Format.asprintf "%a" (H.pp_ops h) (Array.to_list (H.proc_ops h p))))

let explore () =
  let loop_free = [ "mp"; "sb" ] in
  let programs =
    [
      ("bakery2", Lang.Programs.bakery ~n:2 ());
      ("peterson", Lang.Programs.peterson ());
      ("dekker", Lang.Programs.dekker ());
      ("mp", Lang.Programs.mp ());
      ("sb", Lang.Programs.sb ());
      ("spinlock", Lang.Programs.tas_spinlock ());
    ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun m ->
          let key = Machines.name m in
          let cell = Printf.sprintf "%-9s %-7s" name key in
          let v, s = Lang.Explore.check_mutex_stats m p in
          Format.printf "%s dpor %a | %a@." cell pp_verdict v Lang.Dpor.pp_stats s;
          let v, tr = Lang.Explore.check_mutex_naive m p in
          Format.printf "%s naive %a transitions=%d@." cell pp_verdict v tr;
          Format.printf "%s deadlock %s@." cell
            (match Lang.Explore.check_deadlock_freedom m p with
            | Lang.Explore.Deadlock_free n -> Printf.sprintf "free %d" n
            | Lang.Explore.Stuck n -> Printf.sprintf "stuck %d" n
            | Lang.Explore.Liveness_state_limit -> "state-limit");
          let rand = Random.State.make [| 7 |] in
          let h, violated = Lang.Explore.run_random ~max_steps:2_000 m p ~rand in
          let line = history_line h in
          Format.printf "%s random ops=%d violated=%b %s@." cell
            (Smem_core.History.nops h) violated
            (if List.mem name loop_free then line else md5 line);
          if List.mem name loop_free then
            List.iter
              (fun reduced ->
                match
                  Lang.Dpor.fold_traces ~reduced m p ~init:[] ~f:(fun acc (h, _) ->
                      Smem_core.Canon.digest h :: acc)
                with
                | Ok l ->
                    Format.printf "%s traces %s runs=%d histories=%d@." cell
                      (if reduced then "reduced" else "naive")
                      (List.length l)
                      (List.length (List.sort_uniq compare l))
                | Error e -> Format.printf "%s traces error %s@." cell e)
              [ true; false ])
        Machines.all;
      Format.printf "%-9s races %s@." name
        (match Lang.Races.find_race p with
        | Lang.Races.Race_free n -> Printf.sprintf "free %d" n
        | Lang.Races.Race (a, b) ->
            Format.asprintf "race %a / %a" Lang.Races.pp_access a
              Lang.Races.pp_access b
        | Lang.Races.State_limit -> "state-limit"))
    programs

let () =
  match Sys.argv with
  | [| _ |] -> verdicts ()
  | [| _; "witnesses" |] -> witnesses ()
  | [| _; "lattice" |] -> lattice ()
  | [| _; "explore" |] -> explore ()
  | _ ->
      prerr_endline "usage: test_golden.exe [witnesses|lattice|explore]";
      exit 2
