(* perfbench: one benchmark run.

     main.exe --workload serve-cold|serve-warm|paper --seed N --seconds S
              --trace 0|1 --smem PATH --work DIR --golden FILE

   Prints a table, then one JSON result line; exits 1 when any verdict,
   claim or drain failed.  perfbench/run.py builds the toolkit and calls
   this with the paths filled in. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and smem = ref "" and work = ref "" and golden = ref "" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "serve-cold | serve-warm | paper" );
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "timed window");
      ("--trace", Arg.Set_int trace, "1: the traced per-layer run");
      ("--smem", Arg.Set_string smem, "the smem executable");
      ("--work", Arg.Set_string work, "scratch directory");
      ("--golden", Arg.Set_string golden, "the golden verdict matrix");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --smem PATH \
     --work DIR --golden FILE";
  if !work = "" || !smem = "" || !golden = "" then begin
    prerr_endline "perfbench: --smem, --work and --golden are required";
    exit 2
  end;
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let cfg =
    {
      Serve_bench.smem = !smem;
      work = !work;
      golden = Inputs.parse_golden (Inputs.read_file !golden);
      seed = !seed;
      seconds = !seconds;
    }
  in
  let traced = !trace = 1 in
  let report =
    try
      match !workload with
      | "serve-cold" when traced -> Layers.serve cfg ~warm:false
      | "serve-warm" when traced -> Layers.serve cfg ~warm:true
      | "paper" when traced -> Layers.paper cfg
      | "serve-cold" -> Serve_bench.cold cfg
      | "serve-warm" -> Serve_bench.warm cfg
      | "paper" -> Paper.run ~seconds:!seconds
      | w ->
          Printf.eprintf "perfbench: unknown workload %S\n" w;
          exit 2
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 2
  in
  Report.print report;
  if not report.Report.correct then exit 1
