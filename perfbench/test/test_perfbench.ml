(* Tests of the benchmark itself: span arithmetic, the percentile rule,
   metric names, the checks, and the traced replica against Runner. *)

open Rdt_perfbench
module T = Tracer
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Middleware = Rdt_protocols.Middleware

(* --- span arithmetic ----------------------------------------------------- *)

let test_self_time () =
  let b = T.make_buf () in
  (* handler [0, 100) > receive [10, 70) > gc [20, 30) and gc [40, 45);
     then a workload span [80, 90) directly under the handler *)
  T.enter_at b 0;
  T.enter_at b 10;
  T.enter_at b 20;
  Alcotest.(check int) "gc duration" 10 (T.exit_at b T.Gc 30);
  T.enter_at b 40;
  ignore (T.exit_at b T.Gc 45);
  ignore (T.exit_at b T.Receive 70);
  T.enter_at b 80;
  ignore (T.exit_at b T.Workload 90);
  Alcotest.(check int) "handler duration" 100 (T.exit_at b T.Handler 100);
  let self k = b.T.self_ns.(T.index k) and total k = b.T.total_ns.(T.index k) in
  Alcotest.(check int) "gc self" 15 (self T.Gc);
  Alcotest.(check int) "gc calls" 2 b.T.calls.(T.index T.Gc);
  Alcotest.(check int) "receive self" 45 (self T.Receive);
  Alcotest.(check int) "receive total" 60 (total T.Receive);
  Alcotest.(check int) "workload self" 10 (self T.Workload);
  Alcotest.(check int) "handler self" 30 (self T.Handler);
  Alcotest.(check int) "self times partition the top span" 100
    (Array.fold_left ( + ) 0 b.T.self_ns);
  Alcotest.(check int) "stack empty" 0 b.T.depth;
  Alcotest.(check int) "one receive latency" 1 b.T.n_receive;
  Alcotest.(check int) "receive latency is inclusive" 60 b.T.receive_lat.(0)

let test_latency_growth () =
  let b = T.make_buf () in
  for i = 0 to 4999 do
    T.enter_at b 0;
    ignore (T.exit_at b T.Store_append i)
  done;
  Alcotest.(check int) "all kept" 5000 b.T.n_append;
  Alcotest.(check int) "last value" 4999 b.T.append_lat.(4999)

let test_shard_buffers () =
  let tr = T.create ~shards:2 in
  T.enter_at (T.buf tr 1) 0;
  ignore (T.exit_at (T.buf tr 1) T.Handler 7);
  T.set_global tr true;
  T.enter_at (T.buf tr 1) 0;
  ignore (T.exit_at (T.buf tr 1) T.Sampling 5);
  T.set_global tr false;
  Alcotest.(check int) "shard 1 busy" 7 (T.busy_ns tr 1);
  Alcotest.(check int) "shard 0 idle" 0 (T.busy_ns tr 0);
  Alcotest.(check int) "global span kept apart" 5
    tr.T.global_buf.T.self_ns.(T.index T.Sampling);
  Alcotest.(check int) "sums over buffers" 1 (T.calls tr T.Sampling)

let walls_ns ~total =
  let s = float_of_int total /. 1e9 in
  { Report.setup_s = 0.0; run_s = s; sync_s = 0.0; total_s = s }

let test_containment () =
  let tr = T.create ~shards:2 in
  let span b kind t0 t1 =
    T.enter_at b t0;
    ignore (T.exit_at b kind t1)
  in
  (* shard 0 busy 60 ns, shard 1 busy 30 ns, global actions 40 ns *)
  span (T.buf tr 0) T.Handler 0 60;
  span (T.buf tr 1) T.Handler 0 30;
  T.set_global tr true;
  span (T.buf tr 0) T.Sampling 60 100;
  T.set_global tr false;
  Alcotest.(check (list string)) "fits a 100 ns wall" []
    (Report.containment_failures tr (walls_ns ~total:100));
  Alcotest.(check int) "shard 0 over an 80 ns wall" 1
    (List.length (Report.containment_failures tr (walls_ns ~total:80)));
  (* a span charged twice to shard 1 *)
  span (T.buf tr 1) T.Handler 0 30;
  span (T.buf tr 1) T.Handler 0 30;
  Alcotest.(check int) "shard 1 double-charged" 1
    (List.length (Report.containment_failures tr (walls_ns ~total:100)));
  let tr = T.create ~shards:1 in
  T.enter_at (T.buf tr 0) 0;
  Alcotest.(check (list string)) "open span"
    [ "attribution: 1 span(s) left open in shard 0" ]
    (Report.containment_failures tr (walls_ns ~total:100))

(* --- percentile rule ------------------------------------------------------ *)

let test_tail_percentile () =
  List.iter
    (fun (count, p) ->
      Alcotest.(check int) (Printf.sprintf "count %d" count) p (T.tail_percentile count))
    [ (0, 50); (5, 50); (10, 50); (20, 50); (100, 90); (500, 98); (999, 98); (1000, 99); (100_000, 99) ];
  (* the chosen percentile leaves at least ten samples beyond it *)
  for count = 20 to 3000 do
    let p = T.tail_percentile count in
    if p > 50 then
      Alcotest.(check bool)
        (Printf.sprintf "ten beyond p%d of %d" p count)
        true
        (count - (((p * count) + 99) / 100) >= 10)
  done

let test_percentile () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (T.percentile a 50);
  Alcotest.(check int) "p90" 90 (T.percentile a 90);
  Alcotest.(check int) "p99" 99 (T.percentile a 99);
  Alcotest.(check int) "p100" 100 (T.percentile a 100);
  Alcotest.(check int) "empty" 0 (T.percentile [||] 99);
  Alcotest.(check int) "single" 7 (T.percentile [| 7 |] 50)

(* --- traced replica ≡ Runner --------------------------------------------- *)

let store_dirs = ref 0

let fresh_dir () =
  incr store_dirs;
  Printf.sprintf "perfbench-test-store-%d-%d" (Unix.getpid ()) !store_dirs

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let small_config w ~seed =
  let dir = fresh_dir () in
  (Workloads.config (Workloads.small w) ~seed ~store_dir:dir, dir)

let untraced cfg =
  let r = Runner.create cfg in
  Runner.run r;
  Runner.sync_stores r;
  let s = Runner.summary r in
  Runner.close_stores r;
  s

let traced cfg =
  let t = Traced_run.create cfg in
  Traced_run.run t;
  Traced_run.sync_stores t;
  let s = Traced_run.summary t in
  Traced_run.close_stores t;
  (t, s)

let test_replica (w : Workloads.t) () =
  List.iter
    (fun seed ->
      let cfg, dir = small_config w ~seed in
      let expected = untraced cfg in
      rm_rf dir;
      let _, got = traced cfg in
      rm_rf dir;
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed %d: no field differs" w.name seed)
        [] (Traced_run.summary_diff expected got);
      if w.Workloads.faults > 0 then
        Alcotest.(check bool) "recoveries happened" true (got.recovery_sessions > 0);
      if w.Workloads.durable then
        Alcotest.(check bool) "store used" true (got.store_segments > 0))
    [ 1; 7; 2026 ]

(* The traces of one seed at shards=1 and shards=2 are identical, so
   their size must be too, and the real spans must pass containment. *)
let test_trace_words_shards () =
  let words shards =
    let cfg, dir = small_config Workloads.wide ~seed:5 in
    let t0 = T.now_ns () in
    let t, _ = traced { cfg with shards } in
    let total = T.now_ns () - t0 in
    rm_rf dir;
    Alcotest.(check (list string))
      (Printf.sprintf "shards=%d spans contained" shards)
      [] (Report.containment_failures t.Traced_run.probe.Traced_run.tr (walls_ns ~total));
    Report.trace_words t.Traced_run.trace
  in
  let one = words 1 in
  Alcotest.(check bool) "trace has words" true (one > 0);
  Alcotest.(check int) "shards=2 equals shards=1" one (words 2)

let test_diff_detects () =
  let cfg, dir = small_config Workloads.long ~seed:3 in
  let a = untraced cfg in
  rm_rf dir;
  let b = { a with forced_checkpoints = a.forced_checkpoints + 1; mean_total_retained = nan } in
  Alcotest.(check (list string)) "two fields" [ "forced_checkpoints"; "mean_total_retained" ]
    (Traced_run.summary_diff a b)

(* --- checks -------------------------------------------------------------- *)

let finished cfg =
  let r = Runner.create cfg in
  Runner.run r;
  (r, Array.init cfg.Sim_config.n (Runner.middleware r))

let test_checks_pass (w : Workloads.t) () =
  let cfg, dir = small_config w ~seed:11 in
  let r, mws = finished cfg in
  let s = Runner.summary r in
  let failures = Checks.in_memory ~n:cfg.n ~peak_retained:s.peak_retained mws in
  Runner.close_stores r;
  let failures =
    match cfg.store with
    | Sim_config.Durable { dir; config } -> failures @ Checks.reopen ~dir ~config mws
    | Sim_config.Memory -> failures
  in
  rm_rf dir;
  Alcotest.(check (list string)) "no violation" [] failures

let test_checks_catch () =
  (* without a collector, obsolete checkpoints stay: Theorem 5 fails *)
  let cfg, _ = small_config Workloads.long ~seed:5 in
  let _, mws = finished { cfg with gc = Sim_config.No_gc } in
  Alcotest.(check bool) "theorem5 flags it" true (Checks.theorem5 mws <> []);
  Alcotest.(check (list string)) "bound" [ "bound: p1 peaked at 10 > n+1" ]
    (Checks.retention_bound ~n:8 [| 9; 10 |])

let test_reopen_catches () =
  let cfg, dir = small_config Workloads.durable_cas ~seed:4 in
  let r, mws = finished cfg in
  Runner.close_stores r;
  (* an elimination the disk never saw *)
  let store = Middleware.store mws.(0) in
  Rdt_storage.Stable_store.set_backend store
    { b_store = (fun _ -> ()); b_eliminate = (fun _ -> ()); b_truncate_above = (fun ~index:_ -> ()) };
  (match Rdt_storage.Stable_store.retained_indices store with
  | first :: _ :: _ -> Rdt_storage.Stable_store.eliminate store ~index:first
  | _ -> Alcotest.fail "expected two retained checkpoints");
  let config = match cfg.store with Sim_config.Durable d -> d.config | Memory -> assert false in
  let failures = Checks.reopen ~dir ~config mws in
  rm_rf dir;
  Alcotest.(check int) "p0 differs" 1 (List.length failures)

(* --- allocation accounting across domains -------------------------------- *)

let test_alloc_includes_workers () =
  let words shards =
    let cfg =
      { (Workloads.config Workloads.wide ~seed:9 ~store_dir:"") with n = 64; duration = 40.0; shards }
    in
    let r = Runner.create cfg in
    Gc.minor ();
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    Runner.run r;
    Gc.minor ();
    (Gc.quick_stat ()).Gc.minor_words -. w0
  in
  let one = words 1 and two = words 2 in
  let ratio = two /. one in
  if ratio < 0.9 || ratio > 1.25 then
    Alcotest.failf "shards=2 counted %.0f minor words against %.0f at shards=1" two one

(* --- metric names --------------------------------------------------------- *)

let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* The names listed under "per_layer" in BENCHMARK.json. *)
let declared_per_layer () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let find_from sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = match find_from "\"per_layer\"" 0 with Some i -> i | None -> Alcotest.fail "no per_layer" in
  let rec names i acc =
    match find_from "\"name\"" i with
    | None -> List.rev acc
    | Some j ->
      let q1 = Option.get (find_from "\"" (j + 6)) in
      let q2 = Option.get (find_from "\"" (q1 + 1)) in
      names (q2 + 1) (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
  in
  names start []

let test_metric_names () =
  let cfg, dir = small_config Workloads.durable_cas ~seed:2 in
  let t, s = traced cfg in
  rm_rf dir;
  let walls = { Report.setup_s = 0.001; run_s = 0.01; sync_s = 0.001; total_s = 0.012 } in
  let table = Report.attribution t walls in
  let names =
    List.map
      (fun (m : Report.metric) -> m.name)
      (Report.layer_metrics t walls s ~table ~untraced_total_s:0.01 ~minor_collections:1
         ~major_collections:1)
  in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (valid_name n)) names;
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check (list string)) "BENCHMARK.json lists exactly these"
    (List.sort String.compare names)
    (List.sort String.compare (declared_per_layer ()))

let test_workload_faults () =
  let cfg = Workloads.config Workloads.durable_cas ~seed:5 ~store_dir:"x" in
  Alcotest.(check int) "four faults" 4 (List.length cfg.faults);
  Sim_config.validate cfg;
  Alcotest.(check bool) "seeded" true
    (cfg.faults = (Workloads.config Workloads.durable_cas ~seed:5 ~store_dir:"y").faults)

let () =
  let per_workload f = List.map (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (f w)) Workloads.all in
  Alcotest.run "perfbench"
    [
      ( "tracer",
        [
          Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "latency buffers grow" `Quick test_latency_growth;
          Alcotest.test_case "shard and global buffers" `Quick test_shard_buffers;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "containment gate" `Quick test_containment;
        ] );
      ( "replica",
        per_workload test_replica
        @ [ Alcotest.test_case "summary_diff names fields" `Quick test_diff_detects ] );
      ( "checks",
        per_workload test_checks_pass
        @ [
            Alcotest.test_case "violations are caught" `Quick test_checks_catch;
            Alcotest.test_case "reopen mismatch is caught" `Quick test_reopen_catches;
          ] );
      ( "metrics",
        [
          Alcotest.test_case "alloc count includes worker domains" `Quick
            test_alloc_includes_workers;
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "trace words independent of shards" `Quick
            test_trace_words_shards;
          Alcotest.test_case "seeded faults" `Quick test_workload_faults;
        ] );
    ]
