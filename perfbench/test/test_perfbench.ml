(* Tests of the benchmark's own machinery: the percentile rule, the
   verdict oracle, failure accounting, and the determinism of the
   seeded inputs and of the counts the traced run reports. *)

open Perfbench
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Service = Smem_serve.Service
module Stats = Smem_core.Stats
module Corpus = Smem_litmus.Corpus

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* ---------------- percentile rule ---------------- *)

let tail_rule () =
  let tail n = Pstats.tail_permille n in
  check Alcotest.int "1000 samples: p99 has 10 beyond" 990 (tail 1000);
  check Alcotest.int "999 samples: p99 has 9 beyond, p90 is next" 900
    (tail 999);
  check Alcotest.int "100 samples: p90 has 10 beyond" 900 (tail 100);
  check Alcotest.int "99 samples: only the median" 500 (tail 99);
  check Alcotest.int "too few for any tail: the median" 500 (tail 5);
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let s = Pstats.summarize xs in
  check (Alcotest.float 0.) "p50 of 1..1000" 500. s.Pstats.p50;
  check (Alcotest.float 0.) "p99 of 1..1000" 990. s.Pstats.tail;
  let with_failure = Array.append (Array.sub xs 0 999) [| infinity |] in
  check (Alcotest.float 0.) "a failure is slower than any reply" infinity
    (Pstats.percentile_sorted (Pstats.sorted with_failure) ~permille:1000)

(* ---------------- oracle ---------------- *)

let fig1 () = Option.get (Corpus.find "fig1")

(* The service's reply to [item], as the daemon would send it. *)
let reply_to (item : Inputs.item) =
  match Wire.parse_request_line item.Inputs.line with
  | Ok (id, proto, req) ->
      let resp = Service.handle ?id (Service.create ()) req in
      String.trim (Wire.response_line ~proto resp)
  | Error e -> Alcotest.fail e

(* The reply with its SC verdict inverted. *)
let flip_sc (resp : Response.t) =
  let flip (v : Verdict.t) =
    if v.Verdict.authority <> "sc" then v
    else
      match v.Verdict.status with
      | Some Verdict.Allowed -> { v with status = Some Verdict.Forbidden }
      | _ -> { v with status = Some Verdict.Allowed }
  in
  match resp.Response.payload with
  | Response.Verdicts vs ->
      { resp with payload = Response.Verdicts (List.map flip vs) }
  | _ -> Alcotest.fail "expected verdicts"

let rejects_wrong_verdict () =
  let golden = Hashtbl.create 4 in
  List.iter
    (fun (key, v) -> Hashtbl.replace golden ("fig1", key) (v = Verdict.Allowed))
    (fig1 ()).Smem_litmus.Test.expectations;
  let items =
    [| Inputs.inline_item ~id:1 ~kind:Inputs.Check (fig1 ());
       Inputs.named_item ~id:2 (fig1 ()) |]
  in
  Array.iteri
    (fun i item ->
      let oracle =
        Oracle.of_items ~golden:(if i = 0 then Hashtbl.create 1 else golden)
          [| item |]
      in
      let good = reply_to item in
      check Alcotest.bool "the right reply passes" true
        (Oracle.judge oracle item (Some good)).Oracle.ok;
      let bad =
        match Wire.parse_response_line good with
        | Ok resp -> String.trim (Wire.response_line (flip_sc resp))
        | Error e -> Alcotest.fail e
      in
      let o = Oracle.judge oracle item (Some bad) in
      check Alcotest.bool "one flipped verdict fails the reply" false
        o.Oracle.ok;
      check Alcotest.bool "and says why" true (o.Oracle.reason <> ""))
    items

let rejects_wrong_certificate () =
  let item = Inputs.inline_item ~id:7 ~kind:(Inputs.Certify "sc") (fig1 ()) in
  let oracle = Oracle.of_items ~golden:(Hashtbl.create 1) [| item |] in
  check Alcotest.bool "the right certificate passes" true
    (Oracle.judge oracle item (Some (reply_to item))).Oracle.ok;
  Hashtbl.replace oracle.Oracle.expected ("fig1", "sc") true;
  check Alcotest.bool "a certificate against the oracle fails" false
    (Oracle.judge oracle item (Some (reply_to item))).Oracle.ok

(* ---------------- failure accounting ---------------- *)

let failures_count () =
  let item = Inputs.inline_item ~id:3 ~kind:Inputs.Check (fig1 ()) in
  let oracle = Oracle.of_items ~golden:(Hashtbl.create 1) [| item |] in
  let error =
    String.trim
      (Wire.response_line
         (Response.error ~id:3 ~code:Response.Too_large "history too large"))
  in
  let tally = Oracle.tally () in
  List.iter
    (fun reply -> Oracle.record_outcome tally (Oracle.judge oracle item reply))
    [ Some (reply_to item); None; Some error; Some "not json" ];
  Oracle.record tally ~ok:false ~reason:"daemon drain: exit 1";
  check Alcotest.int "attempted" 5 tally.Oracle.attempted;
  check Alcotest.int "failed" 4 tally.Oracle.failures;
  let r = Report.of_tally tally ~notes:[] [] in
  check Alcotest.bool "the run is not correct" false r.Report.correct;
  check Alcotest.int "reported failed" 4 r.Report.failed;
  check Alcotest.int "reported attempted" 5 r.Report.attempted

(* ---------------- determinism ---------------- *)

let lines items = Array.map (fun (it : Inputs.item) -> it.Inputs.line) items

let corpus seed = Inputs.corpus ~seed ~count:40 ()

let search_counts items =
  let acc = Layers.acc () in
  let cache = Smem_cache.Cache.create ~capacity:4096 () in
  Array.iteri
    (fun req (it : Inputs.item) ->
      ignore (Layers.replica acc ~cache ~req it.Inputs.line))
    items;
  let sum f = Layers.sum_search acc.Layers.search f in
  ( sum (fun d -> d.Stats.rf_candidates),
    sum (fun d -> d.Stats.co_candidates),
    sum (fun d -> d.Stats.pruned),
    sum (fun d -> d.Stats.toposorts) )

let same_seed_same_inputs () =
  let a = corpus 5 and b = corpus 5 and c = corpus 6 in
  check (Alcotest.array Alcotest.string) "cold lines"
    (lines (Inputs.cold_items ~seed:5 a))
    (lines (Inputs.cold_items ~seed:5 b));
  check (Alcotest.array Alcotest.string) "warm lines"
    (lines (Inputs.warm_items ~seed:5 a))
    (lines (Inputs.warm_items ~seed:5 b));
  check Alcotest.bool "another seed, other cold lines" false
    (lines (Inputs.cold_items ~seed:5 a) = lines (Inputs.cold_items ~seed:6 c));
  check Alcotest.bool "another seed, other warm lines" false
    (lines (Inputs.warm_items ~seed:5 a) = lines (Inputs.warm_items ~seed:6 c));
  let items = Inputs.cold_items ~seed:5 a in
  let ((rf, _, _, _) as first) = search_counts items in
  check Alcotest.bool "the search ran" true (rf > 0);
  check
    Alcotest.(pair int (pair int (pair int int)))
    "core counts repeat"
    (let a, b, c, d = first in
     (a, (b, (c, d))))
    (let a, b, c, d = search_counts (Inputs.cold_items ~seed:5 b) in
     (a, (b, (c, d))))

let paper_counts_repeat () =
  let s = Paper.resolve () in
  let slice = [ List.hd s.Paper.scopes ] in
  let counts () =
    let p = Layers.paper_pass s ~scopes:slice in
    let sum f = List.fold_left (fun a st -> a + f st) 0 p.Layers.dpor in
    ( p.Layers.matrix.Smem_lattice.Classify.total,
      (sum (fun st -> st.Smem_lang.Dpor.states),
       (sum (fun st -> st.Smem_lang.Dpor.transitions),
        p.Layers.search.Stats.rf_candidates)) )
  in
  let first = counts () in
  check
    Alcotest.(pair int (pair int (pair int int)))
    "histories, states, transitions, rf candidates" first (counts ());
  check Alcotest.int "the Figure-1 scope" 1296 (fst first)

let () =
  Alcotest.run "perfbench"
    [
      ("percentiles", [ tc "tail rule" tail_rule ]);
      ( "oracle",
        [
          tc "rejects a wrong verdict" rejects_wrong_verdict;
          tc "rejects a wrong certificate" rejects_wrong_certificate;
          tc "failures count against attempts" failures_count;
        ] );
      ( "determinism",
        [
          tc "same seed, same inputs and counts" same_seed_same_inputs;
          tc "paper counts repeat" paper_counts_repeat;
        ] );
    ]
