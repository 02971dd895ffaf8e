(* Benchmark harness: regenerates every figure of the paper (F1-F5) and
   runs the practical evaluation it proposes as future work (E1-E3, E5,
   E6), plus Bechamel micro-benchmarks for the complexity claims (E4).

   Usage:
     dune exec bench/main.exe                 # everything, sequential
     dune exec bench/main.exe -- figures      # only F1-F5
     dune exec bench/main.exe -- eval -j 8    # only E1-E3, E5-E8, 8 domains
     dune exec bench/main.exe -- micro        # only the Bechamel benches
     dune exec bench/main.exe -- smoke        # fast micro subset
     dune exec bench/main.exe -- perf-diff BASELINE.json CURRENT.json
                                              # non-fatal regression report
     dune exec bench/main.exe -- mt-gate      # CI gate: shards=4 must not
                                              # lose to shards=1 (exit 1;
                                              # skips on hosts < 4 threads;
                                              # --advisory: report only)

   [-j N] fans the independent simulation cells of the figure/eval
   experiments over N domains (default 1; [-j 0] means the machine's
   recommended domain count).  [--shards K] runs every simulation cell
   on the K-shard engine (default 1).  The report is byte-identical at
   any N and any K.  [micro] and [smoke] also write machine-readable
   BENCH_micro.json. *)

let usage () =
  prerr_endline
    "usage: main.exe [all|figures|eval|micro|smoke] [-j N] [--shards K]\n\
    \       main.exe perf-diff BASELINE.json CURRENT.json\n\
    \       main.exe mt-gate [--advisory]";
  exit 2

let () =
  (* perf-diff is a plain file-to-file comparison, not an experiment *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "perf-diff" then begin
    if Array.length Sys.argv <> 4 then usage ();
    Perf_diff.run ~baseline:Sys.argv.(2) ~current:Sys.argv.(3);
    exit 0
  end;
  (* mt-gate is the CI multicore check: a short min-of-k wall-clock race
     of the whole-run scaling workload at shards=1 vs shards=4.  It skips
     itself (exit 0, with a message) on hosts with < 4 hardware threads,
     where autotune would bypass parallel dispatch; [--advisory] reports
     the ratio without enforcing it (noisy shared runners). *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "mt-gate" then begin
    let advisory =
      match Array.length Sys.argv with
      | 2 -> false
      | 3 when Sys.argv.(2) = "--advisory" -> true
      | _ -> usage ()
    in
    exit (if Micro.mt_gate ~advisory () then 0 else 1)
  end;
  let what = ref "all" in
  let rec parse i =
    if i < Array.length Sys.argv then begin
      (match Sys.argv.(i) with
      | "-j" ->
        if i + 1 >= Array.length Sys.argv then usage ();
        let n =
          match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n >= 0 -> n
          | Some _ | None -> usage ()
        in
        Exp_support.set_jobs
          (if n = 0 then Rdt_parallel.Barrier_team.hardware_parallelism ()
           else n);
        parse (i + 2)
      | "--shards" ->
        if i + 1 >= Array.length Sys.argv then usage ();
        (match int_of_string_opt Sys.argv.(i + 1) with
        | Some n when n >= 1 -> Exp_support.set_shards n
        | Some _ | None -> usage ());
        parse (i + 2)
      | ("all" | "figures" | "eval" | "micro" | "smoke") as w ->
        what := w;
        parse (i + 1)
      | _ -> usage ())
    end
  in
  parse 1;
  let what = !what in
  Printf.printf
    "RDT-LGC benchmark harness — reproduction of Schmidt, Garcia, Pedone &\n\
     Buzato, \"Optimal Asynchronous Garbage Collection for RDT\n\
     Checkpointing Protocols\" (ICDCS 2005)\n";
  let ran_figures =
    if what = "all" || what = "figures" then Some (Exp_figures.all ()) else None
  in
  let ran_eval =
    if what = "all" || what = "eval" then Some (Exp_eval.all ()) else None
  in
  let ran_micro =
    if what = "all" || what = "micro" then Some (Micro.all ())
    else if what = "smoke" then Some (Micro.smoke ())
    else None
  in
  Exp_support.shutdown_pool ();
  let verdict label = function
    | None -> ()
    | Some true -> Printf.printf "%s: all checks passed\n" label
    | Some false -> Printf.printf "%s: SOME CHECKS FAILED\n" label
  in
  print_newline ();
  verdict "figure experiments (F1-F5)" ran_figures;
  verdict "evaluation experiments (E1-E3, E5-E8)" ran_eval;
  verdict "micro-benchmarks (E4)" ran_micro;
  let failed =
    List.exists (function Some false -> true | _ -> false)
      [ ran_figures; ran_eval; ran_micro ]
  in
  if failed then exit 1
