(* The independent verdict oracle.

   Expected verdicts come from answers the code under test did not
   produce: the certificate kernel's own witness search
   ({!Smem_cert.Kernel.search}, which shares no search code with the
   engine) for every certifiable model, and the committed golden matrix
   for the builtin tests.  Generated tests under a model with no
   parameter triple (tso-op) have no independent answer; their cells
   are counted as unchecked.  All of it runs outside the timed
   windows. *)

module Test = Smem_litmus.Test
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Wire = Smem_api.Wire
module Cert = Smem_cert.Cert
module Kernel = Smem_cert.Kernel

type t = {
  expected : (string * string, bool) Hashtbl.t;
      (** (test name, model key) -> allowed *)
  mutable checked : int;  (** cells compared with an expected verdict *)
  mutable unchecked : int;  (** cells with no independent answer *)
}

let create () = { expected = Hashtbl.create 4096; checked = 0; unchecked = 0 }

let add_kernel t (test : Test.t) =
  List.iter
    (fun (m : Model.t) ->
      match m.Model.params with
      | Some p ->
          Hashtbl.replace t.expected (test.Test.name, m.Model.key)
            (Kernel.search p test.Test.history)
      | None -> ())
    Registry.certifiable

let add_golden t golden (test : Test.t) =
  List.iter
    (fun (m : Model.t) ->
      match Hashtbl.find_opt golden (test.Test.name, m.Model.key) with
      | Some v -> Hashtbl.replace t.expected (test.Test.name, m.Model.key) v
      | None -> ())
    Registry.all

(* Expected answers for every item: golden rows for builtin tests, the
   kernel's search for generated ones (each test searched once). *)
let of_items ~golden (items : Inputs.item array) =
  let t = create () in
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (it : Inputs.item) ->
      let name = it.Inputs.test.Test.name in
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        if it.Inputs.named then add_golden t golden it.Inputs.test
        else add_kernel t it.Inputs.test
      end)
    items;
  t

(* One judged reply. *)
type outcome = {
  ok : bool;
  cells : int;  (** verdict cells the reply answered *)
  cached : int;  (** of which the daemon served from its cache *)
  reason : string;  (** why the reply failed; empty when [ok] *)
}

let failed reason = { ok = false; cells = 0; cached = 0; reason }

let compare_cell t ~test ~model allowed =
  match Hashtbl.find_opt t.expected (test, model) with
  | None ->
      t.unchecked <- t.unchecked + 1;
      true
  | Some expected ->
      t.checked <- t.checked + 1;
      expected = allowed

let judge_verdicts t (item : Inputs.item) (resp : Response.t) vs =
  let name = item.Inputs.test.Test.name in
  let keys = List.map (fun (m : Model.t) -> m.Model.key) Registry.all in
  let authorities = List.map (fun (v : Verdict.t) -> v.Verdict.authority) vs in
  let wrong =
    List.filter
      (fun (v : Verdict.t) ->
        v.Verdict.subject <> name
        ||
        match v.Verdict.status with
        | None -> true
        | Some s ->
            not
              (compare_cell t ~test:name ~model:v.Verdict.authority
                 (s = Verdict.Allowed)))
      vs
  in
  if List.sort compare authorities <> List.sort compare keys then
    failed (Printf.sprintf "%s: the verdicts do not cover each model once" name)
  else
    match wrong with
    | [] ->
        {
          ok = true;
          cells = List.length vs;
          cached = resp.Response.cached;
          reason = "";
        }
    | v :: _ ->
        failed
          (Format.asprintf "%s: wrong verdict %a" name Verdict.pp v)

let judge_certificate t (item : Inputs.item) ~model body =
  let name = item.Inputs.test.Test.name in
  match Cert.parse body with
  | Error e -> failed (Printf.sprintf "%s/%s: certificate: %s" name model e)
  | Ok cert when cert.Cert.model <> model ->
      failed (Printf.sprintf "%s: certificate for %s, asked %s" name
                cert.Cert.model model)
  | Ok cert -> (
      match Kernel.verify cert with
      | Error e ->
          failed (Printf.sprintf "%s/%s: kernel rejects: %s" name model e)
      | Ok _ ->
          if compare_cell t ~test:name ~model (cert.Cert.verdict = Cert.Allowed)
          then { ok = true; cells = 1; cached = 0; reason = "" }
          else
            failed
              (Printf.sprintf "%s/%s: wrong certified verdict" name model))

(* Judge the daemon's reply line to [item]; [None] means no reply
   arrived (refused, reset or cut off). *)
let judge t (item : Inputs.item) reply =
  match reply with
  | None -> failed (Printf.sprintf "request %d: no reply" item.Inputs.id)
  | Some line -> (
      match Wire.parse_response_line line with
      | Error e -> failed ("unparseable reply: " ^ e)
      | Ok resp when resp.Response.id <> Some item.Inputs.id ->
          failed
            (Printf.sprintf "request %d: reply carries another id"
               item.Inputs.id)
      | Ok resp -> (
          match (item.Inputs.kind, resp.Response.payload) with
          | _, Response.Error { code; message } ->
              failed
                (Printf.sprintf "request %d: %s: %s" item.Inputs.id
                   (Response.error_code_to_string code)
                   message)
          | Inputs.Check, Response.Verdicts vs -> judge_verdicts t item resp vs
          | Inputs.Certify model, Response.Certificate { body; _ } ->
              judge_certificate t item ~model body
          | _ ->
              failed
                (Printf.sprintf "request %d: unexpected %s payload"
                   item.Inputs.id resp.Response.kind)))

(* Operations attempted and failed.  A failed operation — no reply, an
   error payload, a wrong verdict, a failed drain or a failed claim —
   counts against the attempted total. *)
type tally = {
  mutable attempted : int;
  mutable failures : int;
  mutable reasons : string list;  (** first few, newest first *)
}

let tally () = { attempted = 0; failures = 0; reasons = [] }

let record tally ~ok ~reason =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failures <- tally.failures + 1;
    if List.length tally.reasons < 5 then
      tally.reasons <- reason :: tally.reasons
  end

let record_outcome tally (o : outcome) = record tally ~ok:o.ok ~reason:o.reason
