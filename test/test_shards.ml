(* Shard-count invariance: a simulation is a pure function of
   (seed, config) — running the engine on 1, 2, 4 or 8 domains must
   produce byte-identical traces and summary reports.  This is the
   acceptance property of the conservative time-window engine. *)

module Sim_config = Rdt_core.Sim_config
module Runner = Rdt_core.Runner
module Trace = Rdt_ccp.Trace
module Workload = Rdt_workload.Workload
module Scenario = Rdt_verify.Scenario
module Harness = Rdt_verify.Harness

let trace_bytes trace =
  let path = Filename.temp_file "rdtgc_shards" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save trace path;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

(* Everything observable, as bytes: the full event trace and the printed
   summary report (which folds in engine stats, per-process stores,
   control-message counts, recovery reports and sampled series). *)
let observe ?(autotune = true) cfg ~shards =
  let r = Runner.create { cfg with Sim_config.shards; autotune } in
  Runner.run r;
  let summary = Fmt.str "%a" Runner.pp_summary (Runner.summary r) in
  let series =
    Fmt.str "%a" Rdt_metrics.Series.pp (Runner.total_retained_series r)
  in
  (trace_bytes (Runner.trace r), summary, series)

let check_invariant ?(autotune = true) ?(shard_counts = [ 1; 2; 4; 8 ]) name
    cfg =
  match shard_counts with
  | [] -> ()
  | base_shards :: rest ->
    let base = observe cfg ~shards:base_shards in
    List.iter
      (fun k ->
        let trace, summary, series = observe ~autotune cfg ~shards:k in
        let b_trace, b_summary, b_series = base in
        Alcotest.(check string)
          (Printf.sprintf "%s: trace bytes, %d vs %d shards" name base_shards
             k)
          b_trace trace;
        Alcotest.(check string)
          (Printf.sprintf "%s: summary, %d vs %d shards" name base_shards k)
          b_summary summary;
        Alcotest.(check string)
          (Printf.sprintf "%s: retained series, %d vs %d shards" name
             base_shards k)
          b_series series)
      rest

(* --- fixed scenario matrix -------------------------------------------- *)

let test_uniform_default () =
  check_invariant "uniform/rdt-lgc"
    { Sim_config.default with n = 8; seed = 7; duration = 50.0 }

let test_faults_and_recovery () =
  check_invariant "faults"
    {
      Sim_config.default with
      n = 6;
      seed = 3;
      duration = 40.0;
      faults =
        [
          { Sim_config.pid = 2; crash_at = 15.0; repair_after = 4.0 };
          { Sim_config.pid = 4; crash_at = 25.0; repair_after = 6.0 };
        ];
    }

let test_coordinated_rounds () =
  (* control messages + round completion under the coordinated baseline *)
  check_invariant "coordinated"
    {
      Sim_config.default with
      n = 6;
      seed = 11;
      duration = 40.0;
      gc = Sim_config.Coordinated { period = 5.0 };
      net = { Rdt_sim.Network.default with loss_probability = 0.05 };
    }

let test_fifo_client_server () =
  check_invariant "fifo client-server"
    {
      Sim_config.default with
      n = 7;
      seed = 11;
      duration = 60.0;
      gc = Sim_config.Local_lazy { period = 4.0 };
      workload =
        {
          Workload.default with
          pattern = Workload.Client_server { servers = 2 };
        };
      net = { Rdt_sim.Network.default with fifo = true };
      faults = [ { Sim_config.pid = 1; crash_at = 20.0; repair_after = 6.0 } ];
    }

let test_more_shards_than_processes () =
  (* shards are clamped to n; still invariant *)
  check_invariant ~shard_counts:[ 1; 3; 16 ] "clamped"
    { Sim_config.default with n = 3; seed = 5; duration = 30.0 }

let test_team_path_autotune_off () =
  (* [autotune = false] forces a full domain team with symmetric windows
     regardless of the host's core count — on a narrow CI box this is the
     only configuration that exercises the persistent Barrier_team, the
     pooled cross-shard mailboxes and the window barriers (with autotuning
     on, such a host runs the rounds inline on the calling domain
     instead).  The observable output must not budge. *)
  check_invariant ~autotune:false ~shard_counts:[ 1; 2; 4 ] "team path"
    {
      Sim_config.default with
      n = 6;
      seed = 13;
      duration = 30.0;
      faults = [ { Sim_config.pid = 1; crash_at = 12.0; repair_after = 5.0 } ];
    }

let test_large_n_smoke () =
  (* n = 1024 at shards 1 vs 4: the scale where the per-shard queues'
     cache win shows up (DESIGN.md §13); byte-identity must hold there
     too, not only on toy sizes.  Short duration — this is a tier-1
     smoke, the scaling claim itself lives in the benchmark. *)
  check_invariant ~shard_counts:[ 1; 4 ] "n=1024 smoke"
    { Sim_config.default with n = 1024; seed = 29; duration = 2.0 }

(* --- qcheck property --------------------------------------------------- *)

let gen_config =
  QCheck.Gen.(
    let* n = int_range 2 9 in
    let* seed = int_range 1 100_000 in
    let* duration = float_range 15.0 35.0 in
    let* pattern =
      oneofl
        [
          Workload.Uniform;
          Workload.Ring;
          Workload.Pipeline;
          Workload.Broadcast;
          Workload.Bursty { burst = 2 };
        ]
    in
    let* loss = oneofl [ 0.0; 0.1 ] in
    let* fifo = bool in
    let* gc =
      oneofl
        [
          Sim_config.Local;
          Sim_config.No_gc;
          Sim_config.Coordinated { period = 5.0 };
          Sim_config.Simple { period = 6.0 };
          Sim_config.Local_lazy { period = 4.0 };
        ]
    in
    let* with_fault = bool in
    let faults =
      if with_fault && n > 2 then
        [ { Sim_config.pid = n - 1; crash_at = 8.0; repair_after = 3.0 } ]
      else []
    in
    return
      {
        Sim_config.default with
        n;
        seed;
        duration;
        gc;
        faults;
        workload = { Workload.default with pattern };
        net =
          { Rdt_sim.Network.default with loss_probability = loss; fifo };
      })

let qcheck_invariance =
  QCheck.Test.make ~count:12 ~name:"random config is shard-invariant"
    (QCheck.make gen_config) (fun cfg ->
      check_invariant ~shard_counts:[ 1; 2; 4 ] "qcheck" cfg;
      true)

(* Nightly-only: the same property at simulation scale (n up to 4096,
   where per-process state alone is hundreds of MB and a run takes
   seconds).  Gated on RDTGC_NIGHTLY so `dune runtest` stays fast; the
   nightly workflow exports it. *)
let nightly =
  match Sys.getenv_opt "RDTGC_NIGHTLY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let gen_large_config =
  QCheck.Gen.(
    let* n = oneofl [ 512; 1024; 2048; 4096 ] in
    let* seed = int_range 1 100_000 in
    let* pattern = oneofl [ Workload.Uniform; Workload.Ring ] in
    return
      {
        Sim_config.default with
        n;
        seed;
        (* events scale with n * duration: keep runs in the seconds *)
        duration = 2.0;
        workload = { Workload.default with pattern };
      })

let qcheck_invariance_large =
  QCheck.Test.make ~count:3 ~name:"large-n config is shard-invariant (nightly)"
    (QCheck.make gen_large_config) (fun cfg ->
      check_invariant ~shard_counts:[ 1; 4 ] "qcheck-large" cfg;
      true)

(* --- committed corpus replay ------------------------------------------- *)

(* `dune runtest` runs in the test sandbox (corpus/ alongside the exe);
   `dune exec test/test_main.exe` runs from the project root *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else "test/corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".scn")
  |> List.sort compare

let test_corpus_replays_clean () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus is non-empty" true (files <> []);
  List.iter
    (fun f ->
      match Scenario.load (Filename.concat corpus_dir f) with
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok sc ->
        let r = Harness.run sc in
        Alcotest.(check int)
          (Printf.sprintf "%s passes the oracles" f)
          0
          (List.length r.Harness.violations))
    (corpus_files ())

let test_corpus_regenerates_at_every_shard_count () =
  (* the committed files were generated with the donor simulation on one
     shard; regenerating on 2 and 4 shards must reproduce them byte for
     byte (the generator transcribes the engine's trace, so this is
     trace-level invariance end to end).  Hand-built scenarios carry
     seed 0 by convention and have no generator to regenerate from;
     shrunk reproducers (.min.scn) keep their discovery seed for
     provenance but are ddmin output, not generator output. *)
  List.iter
    (fun f ->
      match Scenario.load (Filename.concat corpus_dir f) with
      | _ when Filename.check_suffix f ".min.scn" -> ()
      | Error e -> Alcotest.failf "%s: %s" f e
      | Ok committed when committed.Scenario.seed = 0 -> ()
      | Ok committed ->
        List.iter
          (fun shards ->
            let regen =
              Scenario.generate ~shards ~seed:committed.Scenario.seed
                ~max_procs:6 ()
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s regenerated on %d shards" f shards)
              true
              (Scenario.to_string regen = Scenario.to_string committed))
          [ 1; 2; 4 ])
    (corpus_files ())

let suite =
  [
    Alcotest.test_case "uniform default" `Quick test_uniform_default;
    Alcotest.test_case "faults and recovery" `Quick test_faults_and_recovery;
    Alcotest.test_case "coordinated rounds" `Quick test_coordinated_rounds;
    Alcotest.test_case "fifo client-server" `Quick test_fifo_client_server;
    Alcotest.test_case "more shards than processes" `Quick
      test_more_shards_than_processes;
    Alcotest.test_case "team path (autotune off)" `Quick
      test_team_path_autotune_off;
    Alcotest.test_case "n=1024 smoke (shards 1 vs 4)" `Quick
      test_large_n_smoke;
    QCheck_alcotest.to_alcotest qcheck_invariance;
    Alcotest.test_case "corpus replays clean" `Quick test_corpus_replays_clean;
    Alcotest.test_case "corpus regenerates at every shard count" `Quick
      test_corpus_regenerates_at_every_shard_count;
  ]
  @
  if nightly then [ QCheck_alcotest.to_alcotest qcheck_invariance_large ]
  else []
