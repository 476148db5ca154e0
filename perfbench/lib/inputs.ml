(* Seeded inputs: the generated corpus and the request lines built from
   it.  Everything here runs before any timed window.

   The daemon receives only these lines.  Each item also keeps the test
   parsed back from the exact text the line carries, so the oracle
   judges the history the daemon will see. *)

module Test = Smem_litmus.Test
module Request = Smem_api.Request
module Wire = Smem_api.Wire
module Model = Smem_core.Model
module Registry = Smem_core.Registry
module Gen = Smem_corpus.Corpus

type kind = Check | Certify of string  (** model key *)

type item = {
  id : int;  (** request id, echoed by the daemon *)
  line : string;  (** the request, newline-terminated *)
  test : Test.t;
  named : bool;  (** a builtin corpus test sent by name *)
  kind : kind;
}

(* Tests generated per seed.  Generation cost grows faster than
   linearly in the count (about 3 s for 1000 on a 2-core box), and 1000
   tests keep a cold daemon busy for about 2.5 s per round. *)
let corpus_count = 1000

(* Inline tests in the warm hot set, beside the 30 builtin tests. *)
let hot_count = 200

(* About one cold request in [certify_one_in] asks for a certificate. *)
let certify_one_in = 10

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file_atomic path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc text);
  Sys.rename tmp path

let parse_corpus text =
  match Gen.parse text with
  | Ok tests -> tests
  | Error e -> failwith ("generated corpus does not parse back: " ^ e)

(* The corpus artifact for a seed, generated once and cached in
   [cache_dir] when one is given.  Both paths return the tests parsed
   from the artifact text, so the inputs do not depend on the cache. *)
let corpus ?cache_dir ~seed ~count () =
  let generate () = Gen.to_string ~seed (Gen.generate ~seed ~count ()) in
  match cache_dir with
  | None -> parse_corpus (generate ())
  | Some dir -> (
      let path =
        Filename.concat dir (Printf.sprintf "corpus-%d-%d.txt" seed count)
      in
      let cached =
        if Sys.file_exists path then
          match Gen.parse (read_file path) with
          | Ok tests when List.length tests = count -> Some tests
          | _ -> None
        else None
      in
      match cached with
      | Some tests -> tests
      | None ->
          let text = generate () in
          write_file_atomic path text;
          parse_corpus text)

let inline_text test = Smem_litmus.Print.to_string test

(* The test as the daemon will parse it from [text]. *)
let reparse text =
  match Smem_litmus.Parse.test_of_string text with
  | Ok t -> t
  | Error e ->
      failwith
        (Format.asprintf "request text does not parse: %a"
           Smem_litmus.Parse.pp_error e)

let inline_item ~id ~kind test =
  let text = inline_text test in
  let source = Request.Inline text in
  let req =
    match kind with
    | Check -> Request.Check { test = source; models = [] }
    | Certify model -> Request.Certify { test = source; model; format = `Sexp }
  in
  {
    id;
    line = Wire.request_line ~id req;
    test = reparse text;
    named = false;
    kind;
  }

let named_item ~id test =
  {
    id;
    line =
      Wire.request_line ~id
        (Request.Check { test = Request.Named test.Test.name; models = [] });
    test;
    named = true;
    kind = Check;
  }

(* serve-cold: every generated test once, as an all-model check or,
   about one time in ten, as a certificate for one certifiable model. *)
let cold_items ~seed tests =
  let rng = Random.State.make [| seed; 0xc01d |] in
  let keys =
    Array.of_list
      (List.map (fun (m : Model.t) -> m.Model.key) Registry.certifiable)
  in
  Array.of_list
    (List.mapi
       (fun i test ->
         let kind =
           if Random.State.int rng certify_one_in = 0 then
             Certify keys.(Random.State.int rng (Array.length keys))
           else Check
         in
         inline_item ~id:(i + 1) ~kind test)
       tests)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let check_item ~id = function
  | `Inline t -> inline_item ~id ~kind:Check t
  | `Named t -> named_item ~id t

let named_sources () = List.map (fun t -> `Named t) Smem_litmus.Corpus.all

(* serve-warm: a seeded sample of the generated tests plus every
   builtin test by name, in seeded order; the load generator cycles
   through them. *)
let warm_items ~seed tests =
  let rng = Random.State.make [| seed; 0x3a53 |] in
  let pool = Array.of_list tests in
  shuffle rng pool;
  let hot = Array.sub pool 0 (min hot_count (Array.length pool)) in
  let sources =
    Array.append
      (Array.map (fun t -> `Inline t) hot)
      (Array.of_list (named_sources ()))
  in
  shuffle rng sources;
  Array.mapi (fun i src -> check_item ~id:(i + 1) src) sources

(* The untimed pass that fills the warm daemon's store: an all-model
   check of every generated test and every builtin test. *)
let priming_items tests =
  Array.of_list
    (List.mapi
       (fun i src -> check_item ~id:(i + 1) src)
       (List.map (fun t -> `Inline t) tests @ named_sources ()))

(* test/golden/verdicts.expected: "test model allowed|forbidden" rows. *)
let parse_golden text =
  let table = Hashtbl.create 700 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match
           List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))
         with
         | [ test; model; "allowed" ] ->
             Hashtbl.replace table (test, model) true
         | [ test; model; "forbidden" ] ->
             Hashtbl.replace table (test, model) false
         | _ -> ());
  table
