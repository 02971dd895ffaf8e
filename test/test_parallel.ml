(* The domain pool behind the experiment harness ([Barrier_team.map]):
   input-order results, exception propagation, and byte-identical
   experiment artifacts at any job count, including when the tasks run
   sharded engines of their own. *)

module Barrier_team = Rdt_parallel.Barrier_team
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Series = Rdt_metrics.Series
module Table = Rdt_metrics.Table

let with_pool ~jobs f =
  let pool = Barrier_team.create ~size:jobs in
  Fun.protect ~finally:(fun () -> Barrier_team.shutdown pool) (fun () -> f pool)

let test_map_order () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          let inputs = List.init 50 Fun.id in
          let doubled = Barrier_team.map pool (fun x -> 2 * x) inputs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d returns results in input order" jobs)
            (List.map (fun x -> 2 * x) inputs)
            doubled))
    [ 1; 2; 3; 4 ]

let test_map_empty_and_small () =
  with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "empty input" []
        (Barrier_team.map pool (fun x -> x) []);
      Alcotest.(check (list int))
        "fewer items than workers" [ 10 ]
        (Barrier_team.map pool (fun x -> 10 * x) [ 1 ]))

let test_pool_reuse () =
  with_pool ~jobs:3 (fun pool ->
      let a = Barrier_team.map pool string_of_int [ 1; 2; 3 ] in
      let b = Barrier_team.map pool String.length a in
      Alcotest.(check (list int)) "second map over first" [ 1; 1; 1 ] b)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          match
            Barrier_team.map pool
              (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
              (List.init 9 Fun.id)
          with
          | _ -> Alcotest.fail "expected the task's exception to propagate"
          | exception Boom x ->
            (* all tasks drain, then the first failure in input order wins *)
            Alcotest.(check int)
              (Printf.sprintf "jobs=%d first input-order failure" jobs)
              2 x))
    [ 1; 4 ]

let test_default_jobs_positive () =
  Alcotest.(check bool)
    "recommended domain count is positive" true
    (Barrier_team.hardware_parallelism () >= 1)

(* The harness's real workload: independent simulation cells evaluated on
   the pool must produce exactly the sequential results, at any job
   count.  Compares full summaries and the sampled series values.

   The last cell runs a two-shard engine inside a map task, i.e. a
   Barrier_team round started on a pool worker whose domain carries a
   non-zero member index of its own; the inner round's caller must still
   execute shard 0 ([bench eval -j N --shards K] does exactly this).
   [autotune = false] forces the domain team on any host. *)
let sharded_cell =
  {
    Sim_config.default with
    n = 6;
    seed = 23;
    duration = 30.0;
    shards = 2;
    autotune = false;
    sample_interval = 2.0;
  }

let cell_configs =
  List.concat_map
    (fun seed ->
      List.map
        (fun gc ->
          {
            Sim_config.default with
            n = 4;
            seed;
            duration = 30.0;
            gc;
            sample_interval = 2.0;
            workload =
              {
                Workload.pattern = Workload.Uniform;
                send_mean_interval = 0.8;
                basic_ckpt_mean_interval = 4.0;
                reply_probability = 0.3;
              };
          })
        [ Sim_config.No_gc; Sim_config.Local; Sim_config.Coordinated { period = 5.0 } ])
    [ 7; 19 ]
  @ [ sharded_cell ]

let run_cell cfg =
  let t = Runner.create cfg in
  Runner.run t;
  let s = Runner.summary t in
  let series =
    List.map Series.values (Array.to_list (Runner.retained_series t))
  in
  (s, series)

let test_parallel_cells_equal_sequential () =
  let sequential = List.map run_cell cell_configs in
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          let parallel = Barrier_team.map pool run_cell cell_configs in
          List.iteri
            (fun i ((s_seq, v_seq), (s_par, v_par)) ->
              Alcotest.(check bool)
                (Printf.sprintf "jobs=%d cell %d summary identical" jobs i)
                true
                (compare s_seq s_par = 0);
              Alcotest.(check (list (list (float 0.0))))
                (Printf.sprintf "jobs=%d cell %d series identical" jobs i)
                v_seq v_par)
            (List.combine sequential parallel)))
    [ 2; 4 ]

(* Rendered artifact: a results table filled from pool results must be
   byte-identical to the sequentially filled one. *)
let render_table results =
  let t =
    Table.create
      ~columns:
        [ ("cell", Table.Left); ("mean retained", Table.Right); ("gc", Table.Left) ]
  in
  List.iteri
    (fun i ((s : Runner.summary), _) ->
      Table.add_row t
        [
          string_of_int i;
          Table.fmt_float s.Runner.mean_total_retained;
          s.Runner.gc;
        ])
    results;
  Table.render t

let test_rendered_table_identical () =
  let seq = render_table (List.map run_cell cell_configs) in
  with_pool ~jobs:4 (fun pool ->
      let par = render_table (Barrier_team.map pool run_cell cell_configs) in
      Alcotest.(check string) "table text identical at -j 4" seq par)

let suite =
  [
    Alcotest.test_case "map preserves input order" `Quick test_map_order;
    Alcotest.test_case "empty and small inputs" `Quick test_map_empty_and_small;
    Alcotest.test_case "pool reuse across maps" `Quick test_pool_reuse;
    Alcotest.test_case "exception propagation" `Quick
      test_exception_propagation;
    Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
    Alcotest.test_case "simulation cells: parallel = sequential" `Quick
      test_parallel_cells_equal_sequential;
    Alcotest.test_case "rendered table byte-identical" `Quick
      test_rendered_table_identical;
  ]
