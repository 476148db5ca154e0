module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Canon = Smem_core.Canon
module Cache = Smem_cache.Cache
module Request = Smem_api.Request
module Response = Smem_api.Response
module Verdict = Smem_api.Verdict
module Test = Smem_litmus.Test
module Clock = Smem_obs.Clock

type t = { cache : Cache.t option; jobs : int; clock : unit -> int }

(* The clock is a seam: responses carry [elapsed_ns], and the
   deterministic simulation harness needs byte-identical responses
   across runs, so it injects a virtual clock advancing a fixed tick
   per reading.  Production reads the monotonic clock. *)
let create ?cache ?(jobs = 1) ?(clock = Clock.now) () = { cache; jobs; clock }
let cache t = t.cache

(* A verdict is cached under the history's canonical digest only when
   the model cannot tell the members of a canonical class apart;
   otherwise under the history as written. *)
let check_model t model h =
  match t.cache with
  | None -> (Model.check model h, false)
  | Some c ->
      let digest =
        if model.Model.renaming_invariant then Canon.digest h
        else Canon.literal_digest h
      in
      Cache.find_or_add c ~digest ~model:model.Model.key (fun () ->
          Model.check model h)

let check_history t model h = fst (check_model t model h)

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)

type failure = { code : Response.error_code; message : string }

let ( let* ) = Result.bind

(* Registry.resolve's failure message carries the reason — a grammar
   parse error, a bad family argument, or an unknown name with a
   did-you-mean suggestion. *)
let resolve_model key =
  match Registry.resolve key with
  | Ok m -> Ok m
  | Error reason ->
      Error { code = Response.Unknown_model; message = reason }

let resolve_models = function
  | [] -> Ok Registry.all
  | keys ->
      List.fold_right
        (fun key acc ->
          let* acc = acc in
          let* m = resolve_model key in
          Ok (m :: acc))
        keys (Ok [])

let resolve_test = function
  | Request.Named name -> (
      match Smem_litmus.Corpus.find name with
      | Some t -> Ok t
      | None ->
          Error
            {
              code = Response.Unknown_test;
              message = "unknown corpus test: " ^ name;
            })
  | Request.Inline text -> (
      match Smem_litmus.Parse.test_of_string text with
      | Ok t -> Ok t
      | Error e ->
          Error
            {
              code = Response.Bad_request;
              message =
                Format.asprintf "litmus parse: %a" Smem_litmus.Parse.pp_error e;
            })

let scope_to_config (s : Request.scope) =
  {
    Smem_lattice.Enumerate.procs = s.Request.procs;
    nlocs = s.Request.nlocs;
    max_value = s.Request.max_value;
    labeled = s.Request.labeled;
  }

let resolve_scopes = function
  | [] -> Smem_lattice.Classify.standard_scopes
  | scopes -> List.map scope_to_config scopes

(* One check/corpus cell: a cached-or-fresh membership verdict. *)
let cell t (test, model) =
  let got, cached = check_model t model test.Test.history in
  ( Verdict.v ~subject:test.Test.name ~authority:model.Model.key ~cached
      ?expected:(Test.expected test model.Model.key)
      (Some (Verdict.status_of_bool got)),
    cached )

let check_cells t tests models =
  let cells =
    List.concat_map (fun tst -> List.map (fun m -> (tst, m)) models) tests
  in
  let results =
    if t.jobs > 1 then Smem_parallel.Pool.map ~jobs:t.jobs (cell t) cells
    else List.map (cell t) cells
  in
  let verdicts = List.map fst results in
  let cached = List.length (List.filter snd results) in
  (Response.Verdicts verdicts, cached, List.length results - cached)

let relation_name = function
  | Smem_lattice.Classify.Equal -> "equal"
  | Smem_lattice.Classify.Stronger -> "stronger"
  | Smem_lattice.Classify.Weaker -> "weaker"
  | Smem_lattice.Classify.Incomparable -> "incomparable"

let classify t models scopes =
  let matrix =
    Smem_lattice.Classify.classify_scopes ~jobs:t.jobs ~models scopes
  in
  let keys =
    Array.of_list
      (List.map (fun m -> m.Model.key) matrix.Smem_lattice.Classify.models)
  in
  let n = Array.length keys in
  let relations = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if i <> j then
        relations :=
          ( keys.(i),
            keys.(j),
            relation_name (Smem_lattice.Classify.relation matrix i j) )
          :: !relations
    done
  done;
  Response.Classification
    {
      total = matrix.Smem_lattice.Classify.total;
      allowed =
        List.mapi
          (fun i _ ->
            (keys.(i), matrix.Smem_lattice.Classify.allowed_counts.(i)))
          matrix.Smem_lattice.Classify.models;
      relations = !relations;
      hasse =
        List.map
          (fun (i, j) -> (keys.(i), keys.(j)))
          (Smem_lattice.Classify.hasse_edges matrix);
    }

let witness_text name h =
  Smem_litmus.Print.to_string (Test.of_history ~name ~expect:[] h)

let distinguish t a b scopes =
  match Smem_lattice.Distinguish.compare ~jobs:t.jobs ~a ~b scopes with
  | Smem_lattice.Distinguish.Equal ->
      Response.Distinction { relation = "equal"; witnesses = [] }
  | Smem_lattice.Distinguish.A_stronger w ->
      Response.Distinction
        {
          relation = "a-stronger";
          witnesses = [ ("allowed-by-b-only", witness_text "b_only" w) ];
        }
  | Smem_lattice.Distinguish.B_stronger w ->
      Response.Distinction
        {
          relation = "b-stronger";
          witnesses = [ ("allowed-by-a-only", witness_text "a_only" w) ];
        }
  | Smem_lattice.Distinguish.Incomparable (wa, wb) ->
      Response.Distinction
        {
          relation = "incomparable";
          witnesses =
            [
              ("allowed-by-a-only", witness_text "a_only" wa);
              ("allowed-by-b-only", witness_text "b_only" wb);
            ];
        }

let certify test model format =
  match
    Smem_cert.Cert.certify model ~name:test.Test.name test.Test.history
  with
  | None ->
      Error
        {
          code = Response.Uncertifiable;
          message =
            model.Model.key
            ^ " declares no parameter triple; it cannot be certified";
        }
  | Some cert -> (
      match Smem_cert.Kernel.verify cert with
      | Error reason ->
          Error
            {
              code = Response.Rejected;
              message = "kernel rejected the certificate: " ^ reason;
            }
      | Ok _ ->
          Ok
            (Response.Certificate
               {
                 format = (match format with `Sexp -> "sexp" | `Json -> "json");
                 body = Smem_cert.Cert.to_string ~format cert;
               }))

(* The model catalogue, from the registry — the single source of truth
   the CLI table and docs/API.md's model listing are generated from. *)
let catalogue () =
  Response.Catalogue
    {
      models =
        List.map
          (fun (m : Model.t) ->
            {
              Response.key = m.Model.key;
              name = m.Model.name;
              description = m.Model.description;
              params = Option.map Model.params_strings m.Model.params;
            })
          Registry.all;
      families =
        List.map
          (fun (f : Registry.family_info) ->
            {
              Response.family = f.Registry.family;
              doc = f.Registry.doc;
              params = f.Registry.params;
            })
          Registry.families;
    }

let execute t = function
  | Request.Check { test; models } ->
      let* test = resolve_test test in
      let* models = resolve_models models in
      Ok (check_cells t [ test ] models)
  | Request.Corpus { models } ->
      let* models = resolve_models models in
      Ok (check_cells t Smem_litmus.Corpus.all models)
  | Request.Classify { models; scopes } ->
      let* models =
        match models with
        | [] -> Ok Registry.comparable
        | keys -> resolve_models keys
      in
      Ok (classify t models (resolve_scopes scopes), 0, 0)
  | Request.Distinguish { a; b; scopes } ->
      let* a = resolve_model a in
      let* b = resolve_model b in
      Ok (distinguish t a b (resolve_scopes scopes), 0, 0)
  | Request.Certify { test; model; format } ->
      let* test = resolve_test test in
      let* model = resolve_model model in
      let* payload = certify test model format in
      Ok ((payload, 0, 1))
  | Request.Models -> Ok (catalogue (), 0, 0)

(* The view search raises the typed {!Smem_core.View.Too_large} on
   histories past its word-encoding capacity.  Workers re-raise in the
   parent ({!Smem_parallel.Pool.map}), so catching around [execute]
   covers the parallel cells too; the client gets a structured
   [too-large] instead of the catch-all [internal]. *)
let execute_safe t req =
  try execute t req
  with Smem_core.View.Too_large { nops; limit } ->
    Error
      {
        code = Response.Too_large;
        message =
          Printf.sprintf
            "history has %d operations; the view search supports at most %d"
            nops limit;
      }

let handle ?id t req =
  let t0 = t.clock () in
  let elapsed () = max 0 (t.clock () - t0) in
  let kind = Request.kind req in
  match execute_safe t req with
  | Ok (payload, cached, computed) ->
      { Response.id; kind; cached; computed; elapsed_ns = elapsed (); payload }
  | Error { code; message } ->
      {
        Response.id;
        kind;
        cached = 0;
        computed = 0;
        elapsed_ns = elapsed ();
        payload = Response.Error { code; message };
      }
