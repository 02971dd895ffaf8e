(* Shared helpers for the experiment harness. *)

module Table = Rdt_metrics.Table
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Workload = Rdt_workload.Workload
module Barrier_team = Rdt_parallel.Barrier_team

(* --- parallel fan-out -------------------------------------------------- *)

(* Experiments are organized in two phases so the report stays
   byte-identical at any [-j]: phase 1 enumerates the independent
   simulation cells in loop order and evaluates them on the pool (cells
   never print), phase 2 replays the same loops sequentially, popping
   each cell's result in order and formatting the report. *)

let jobs = ref 1
let set_jobs n = jobs := max 1 n

(* Shard count folded into every simulation cell the harness builds via
   [base_config] (the figure/eval sweeps).  The reports stay
   byte-identical at any shard count — that is the engine's determinism
   guarantee — so sweeping [--shards] is a scaling knob and a standing
   end-to-end exercise of the sharded dispatch path, not a different
   experiment. *)
let shards = ref 1
let set_shards n = shards := max 1 n

let pool = ref None

let get_pool () =
  match !pool with
  | Some p -> p
  | None ->
    let p = Barrier_team.create ~size:!jobs in
    pool := Some p;
    p

let shutdown_pool () =
  match !pool with
  | Some p ->
    Barrier_team.shutdown p;
    pool := None
  | None -> ()

let par_map f xs = Barrier_team.map (get_pool ()) f xs

let par_run cells = par_map (fun cell -> cell ()) cells

let popper results =
  let rest = ref results in
  fun () ->
    match !rest with
    | x :: tl ->
      rest := tl;
      x
    | [] -> invalid_arg "Exp_support.popper: phase 2 popped too many results"

let section title description =
  Printf.printf "\n=== %s ===\n%s\n\n" title description

let subsection title = Printf.printf "\n--- %s ---\n" title

let check label ok =
  Printf.printf "[%s] %s\n" (if ok then "PASS" else "FAIL") label;
  ok

let run_sim cfg =
  let t = Runner.create cfg in
  Runner.run t;
  t

let fmt_ints l = "{" ^ String.concat "," (List.map string_of_int l) ^ "}"

let fmt_int_array a = fmt_ints (Array.to_list a)

let fmt_uc uc =
  "("
  ^ String.concat ","
      (Array.to_list
         (Array.map (function None -> "*" | Some i -> string_of_int i) uc))
  ^ ")"

let base_workload pattern =
  {
    Workload.pattern;
    send_mean_interval = 0.8;
    basic_ckpt_mean_interval = 4.0;
    reply_probability = 0.3;
  }

let base_config ~n ~seed ~gc ~pattern ~duration =
  {
    Sim_config.default with
    n;
    seed;
    duration;
    gc;
    workload = base_workload pattern;
    sample_interval = 2.0;
    shards = !shards;
  }
