(* Per-layer metrics and the attribution table of a traced run. *)

module T = Tracer
module Tr = Traced_run
module Engine = Rdt_sim.Engine
module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Runner = Rdt_core.Runner

type walls = {
  setup_s : float;
  run_s : float;
  sync_s : float;
  total_s : float;  (** outer clock around setup, run and sync *)
}

let s_of_ns ns = float_of_int ns /. 1e9

(* Self time of each layer in wall-equivalent seconds: spans recorded by
   the calling domain count as they are; spans recorded inside windows
   are divided by the shard count (the mean shard's share of the window
   time).  [sim] is what the engine keeps for itself: the run's wall time
   minus the global actions and the mean shard's layer work, which leaves
   dispatch, event queues, sends, timer arming and barrier waits. *)
let attribution (t : Tr.t) walls =
  let tr = t.Tr.probe.Tr.tr in
  let shards = float_of_int (T.shards tr) in
  let g = tr.T.global_buf in
  let window_self k =
    Array.fold_left (fun acc b -> acc + b.T.self_ns.(T.index k)) 0 tr.T.shard_bufs
  in
  let window_child_ns =
    Array.fold_left
      (fun acc b ->
        let h = T.index T.Handler in
        acc + b.T.total_ns.(h) - b.T.self_ns.(h))
      0 tr.T.shard_bufs
  in
  let global_run_ns =
    g.T.total_ns.(T.index T.Global) + g.T.total_ns.(T.index T.Sampling)
  in
  let sim_run_s =
    walls.run_s -. s_of_ns global_run_ns -. (s_of_ns window_child_ns /. shards)
  in
  let share k =
    match k with
    | T.Handler -> 0.0
    | _ ->
      s_of_ns g.T.self_ns.(T.index k) +. (s_of_ns (window_self k) /. shards)
  in
  let layers = [ "sim"; "workload"; "protocols"; "gc"; "store"; "metrics"; "recovery" ] in
  List.map
    (fun layer ->
      let spans =
        Array.fold_left
          (fun acc k -> if T.layer k = layer then acc +. share k else acc)
          0.0 T.kinds
      in
      (layer, if layer = "sim" then spans +. sim_run_s else spans))
    layers

(* Over the run phase the sum is an identity: [sim] is defined as what
   the other layers leave of the run's wall time.  Only set-up or sync
   time outside every span can make it miss; [containment_failures]
   holds the checks that can fail during the run. *)
let attribution_ok walls table =
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 table in
  let negative = List.exists (fun (_, s) -> s < -0.01 *. walls.total_s) table in
  let gap = Float.abs (walls.total_s -. sum) /. walls.total_s in
  (sum, gap, (not negative) && gap <= 0.10)

(* Checks on the recorded spans themselves, one message per violation:
   every buffer's span stack ends empty, and for each shard its
   top-level spans (handlers) plus the calling domain's top-level spans
   (set-up, global actions, sync) fit in the traced wall.  Those two
   never overlap in time, so a sum above the wall means a span was
   charged twice or to the wrong buffer.  1% covers clock rounding. *)
let containment_failures (tr : T.t) walls =
  let wall_ns = walls.total_s *. 1e9 in
  let g = tr.T.global_buf in
  let open_stacks =
    List.filter_map
      (fun (name, b) ->
        if b.T.depth = 0 then None
        else Some (Printf.sprintf "attribution: %d span(s) left open in %s" b.T.depth name))
      (("global", g)
      :: List.mapi (fun i b -> (Printf.sprintf "shard %d" i, b)) (Array.to_list tr.T.shard_bufs))
  in
  let overfull =
    List.filter_map
      (fun (i, b) ->
        let ns = float_of_int (b.T.top_ns + g.T.top_ns) in
        if ns <= 1.01 *. wall_ns then None
        else
          Some
            (Printf.sprintf
               "attribution: shard %d and global spans cover %.4f s of a %.4f s wall" i
               (ns /. 1e9) walls.total_s))
      (List.mapi (fun i b -> (i, b)) (Array.to_list tr.T.shard_bufs))
  in
  open_stacks @ overfull

(* Words of the trace's event records, the part of the trace that grows
   with the run.  [Trace.all_events] shares the trace's records; its own
   list cells (three words each) are taken off.  Measuring the [Trace.t]
   itself would also reach whatever its callbacks close over. *)
let trace_words trace =
  let events = Rdt_ccp.Trace.all_events trace in
  Obj.reachable_words (Obj.repr events) - (3 * List.length events)

let words_of_list l = List.fold_left (fun acc x -> acc + Obj.reachable_words (Obj.repr x)) 0 l

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Every per-layer metric.  Times are CPU seconds summed over shards;
   [runtime.*] and [trace_overhead_ratio] come from the untraced run of
   the same seed. *)
let layer_metrics (t : Tr.t) walls (s : Runner.summary) ~table ~untraced_total_s
    ~minor_collections ~major_collections =
  let p = t.Tr.probe in
  let tr = p.Tr.tr in
  let self k = s_of_ns (T.self_ns tr k) in
  let calls k = T.calls tr k in
  let events = (Engine.stats t.Tr.engine).Engine.events in
  let sum a = Array.fold_left ( + ) 0 a in
  let busy = Array.init (T.shards tr) (fun sh -> s_of_ns (T.busy_ns tr sh)) in
  let busy_max = Array.fold_left Float.max 0.0 busy in
  let busy_mean = Array.fold_left ( +. ) 0.0 busy /. float_of_int (Array.length busy) in
  let global_run_s =
    s_of_ns
      (tr.T.global_buf.T.total_ns.(T.index T.Global)
      + tr.T.global_buf.T.total_ns.(T.index T.Sampling))
  in
  let us sorted pct = float_of_int (T.percentile sorted pct) /. 1e3 in
  let receive = T.latencies tr T.Receive in
  let append = T.latencies tr T.Store_append in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let sim_self = List.assoc "sim" table in
  let gc_calls = calls T.Gc in
  let eliminated = sum p.Tr.eliminated in
  let live = s.store_live_bytes and dead = s.store_dead_bytes in
  [
    m "sim.events" "count" (float_of_int events);
    m "sim.self_s" "s" sim_self;
    m "sim.ns_per_event" "ns" (sim_self *. 1e9 /. float_of_int (max 1 events));
    m "parallel.busy_s.max" "s" busy_max;
    m "parallel.busy_s.mean" "s" busy_mean;
    m "parallel.wait_s" "s" (walls.run_s -. global_run_s -. busy_max);
    m "parallel.imbalance" "ratio" (if busy_mean > 0.0 then busy_max /. busy_mean else 1.0);
    m "workload.self_s" "s" (self T.Workload);
    m "protocols.send_s" "s" (self T.Send);
    m "protocols.receive_s" "s" (self T.Receive);
    m "protocols.receive_us.p50" "us" (us receive 50);
    m "protocols.receive_us.p99" "us"
      (us receive (T.tail_percentile (Array.length receive)));
    m "protocols.basic_ckpt_s" "s" (self T.Basic_ckpt);
    m "protocols.forced_ckpts" "count" (float_of_int s.forced_checkpoints);
    m "protocols.forced_per_msg" "ratio" (ratio s.forced_checkpoints s.app_messages);
    m "protocols.piggyback_words_per_msg" "words"
      (ratio (sum p.Tr.piggyback_words) (sum p.Tr.sends));
    m "gc.calls" "count" (float_of_int gc_calls);
    m "gc.self_s" "s" (self T.Gc);
    m "gc.us_per_call" "us" (self T.Gc *. 1e6 /. float_of_int (max 1 gc_calls));
    m "gc.eliminated" "count" (float_of_int eliminated);
    m "gc.eliminated_per_stored" "ratio" (ratio eliminated s.stored_total);
    m "storage.archive_words" "words"
      (float_of_int
         (Array.fold_left
            (fun acc mw -> acc + Obj.reachable_words (Obj.repr (Middleware.archive mw)))
            0 t.Tr.middlewares));
    m "storage.retained_words" "words"
      (float_of_int
         (Array.fold_left
            (fun acc mw -> acc + words_of_list (Stable_store.retained (Middleware.store mw)))
            0 t.Tr.middlewares));
    m "ccp.trace_events" "count" (float_of_int p.Tr.trace_events);
    m "ccp.trace_words" "words" (float_of_int (trace_words t.Tr.trace));
    m "store.appends" "count" (float_of_int (calls T.Store_append));
    m "store.append_s" "s" (self T.Store_append);
    m "store.append_us.p50" "us" (us append 50);
    m "store.append_us.p99" "us" (us append (T.tail_percentile (Array.length append)));
    m "store.eliminate_s" "s" (self T.Store_eliminate);
    m "store.sync_s" "s" (self T.Store_sync);
    m "store.compactions" "count" (float_of_int s.store_compactions);
    m "store.live_ratio" "ratio" (ratio live (live + dead));
    m "sampling.samples" "count" (float_of_int (calls T.Sampling));
    m "sampling.self_s" "s" (self T.Sampling);
    m "sampling.alloc_words" "words" p.Tr.sampling_alloc_words;
    m "recovery.sessions" "count" (float_of_int s.recovery_sessions);
    m "recovery.self_s" "s" (self T.Recovery);
    m "recovery.ckpts_rolled_back" "count" (float_of_int s.checkpoints_rolled_back);
    m "runtime.minor_collections" "count" (float_of_int minor_collections);
    m "runtime.major_collections" "count" (float_of_int major_collections);
    m "trace_overhead_ratio" "ratio" (walls.total_s /. untraced_total_s);
  ]

let pp_table ppf ~workload ~shards walls table =
  let sum, gap, _ = attribution_ok walls table in
  Format.fprintf ppf "per-layer self time, %s (wall-equivalent; %d shard%s)@." workload
    shards (if shards = 1 then "" else "s");
  List.iter
    (fun (layer, s) ->
      Format.fprintf ppf "  %-10s %9.4f s  %5.1f%%@." layer s (100.0 *. s /. walls.total_s))
    table;
  Format.fprintf ppf "  %-10s %9.4f s  (traced wall %.4f s: setup %.4f, run %.4f, sync %.4f; gap %.2f%%)@."
    "sum" sum walls.total_s walls.setup_s walls.run_s walls.sync_s (100.0 *. gap)
