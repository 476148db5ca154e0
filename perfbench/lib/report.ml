(* The run's result: a human-readable table, then the one-line JSON
   object the benchmark contract fixes as the last line of stdout. *)

type metric = { name : string; value : float; unit : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** context printed above the JSON line *)
}

let metric name unit value = { name; value; unit }

(* Every digit the float carries; non-finite values are not JSON
   numbers and only arise from a failed measurement. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json t =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (number m.value) m.unit)
      t.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed
    (String.concat ", " metrics)

let print t =
  List.iter print_endline t.notes;
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6g %s\n" m.name m.value m.unit)
    t.metrics;
  print_endline (json t)

let of_tally (tally : Oracle.tally) ~notes metrics =
  let failure_notes =
    List.rev_map (fun r -> "FAILED: " ^ r) tally.Oracle.reasons
  in
  {
    correct = tally.Oracle.failures = 0 && tally.Oracle.attempted > 0;
    attempted = max 1 tally.Oracle.attempted;
    failed = tally.Oracle.failures;
    metrics;
    notes = notes @ failure_notes;
  }
