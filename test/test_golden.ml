(* Golden conformance suite.  With no argument: print the verdict of
   every model on every corpus test, one line per cell, in a stable
   order (diffed against test/golden/verdicts.expected).  With
   [witnesses]: print, per cell, an MD5 of the witness the default
   engine finds (its views, reads-from map and labeled order) or [-]
   when the cell is forbidden, then one trailer line per model with the
   search-work counters that model spent over the whole corpus (diffed
   against test/golden/witnesses.expected).  The second file pins what
   the verdict matrix cannot: which witness each search returns and how
   many candidates it walked to get there.  After an intentional
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

let () =
  match Sys.argv with
  | [| _ |] -> verdicts ()
  | [| _; "witnesses" |] -> witnesses ()
  | _ ->
      prerr_endline "usage: test_golden.exe [witnesses]";
      exit 2
