(* A traced replica of [Rdt_core.Runner] for the RDT-LGC configurations
   the benchmark runs.  It builds the same stack from the public layer
   APIs, in [Runner.create]'s order, and opens a span around every call
   into a layer.  A run is a pure function of (seed, config), so the
   replica must reproduce [Runner.summary] field for field; the bench
   compares the two and counts a mismatch as a failed run.

   Only [gc = Local] is replicated: the coordinated collectors' rounds
   are not part of any workload.  Hot paths open and close spans inline
   rather than through a closure-taking helper, so the traced run adds
   no allocation per event. *)

module Engine = Rdt_sim.Engine
module Prng = Rdt_sim.Prng
module Trace = Rdt_ccp.Trace
module Middleware = Rdt_protocols.Middleware
module Control = Rdt_protocols.Control
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Global_gc = Rdt_gc.Global_gc
module Session = Rdt_recovery.Session
module Workload = Rdt_workload.Workload
module Series = Rdt_metrics.Series
module Sim_config = Rdt_core.Sim_config
module Sim_msg = Rdt_core.Sim_msg
module Runner = Rdt_core.Runner
module T = Tracer

(* What the wrappers record: spans plus per-shard counters, indexed like
   the tracer's shard buffers.  Built before any layer so the initial
   checkpoints stored during setup are already observed. *)
type probe = {
  tr : T.t;
  shard_of : int array;
  sends : int array;
  piggyback_words : int array;
  eliminated : int array;
  mutable trace_events : int;
  mutable sampling_alloc_words : float;
}

let buf p pid = T.buf p.tr p.shard_of.(pid)

type t = {
  cfg : Sim_config.t;
  engine : Sim_msg.t Engine.t;
  trace : Trace.t;
  middlewares : Middleware.t array;
  collectors : Rdt_lgc.t option array;
  log_stores : Log_store.t option array;
  workload : Workload.t;
  series_retained : Series.t array;
  series_total : Series.t;
  series_optimal : Series.t;
  series_store_live_bytes : Series.t;
  series_store_dead_bytes : Series.t;
  mutable crashed_pending : int list;
  mutable recoveries : Session.report list;
  probe : probe;
}

let durable t = Array.exists Option.is_some t.log_stores

(* --- application activity ------------------------------------------- *)

let app_send t ~src ~dst =
  let p = t.probe in
  let b = buf p src in
  let now = Engine.now t.engine in
  T.enter b;
  let msg = Middleware.prepare_send t.middlewares.(src) ~dst ~now in
  T.exit b T.Send;
  let sh = p.shard_of.(src) in
  p.sends.(sh) <- p.sends.(sh) + 1;
  p.piggyback_words.(sh) <-
    p.piggyback_words.(sh) + Control.size_words msg.Middleware.control;
  Engine.send t.engine ~src ~dst (Sim_msg.App msg)

let rec send_all t ~src = function
  | [] -> ()
  | dst :: rest ->
    app_send t ~src ~dst;
    send_all t ~src rest

let spontaneous_sends t pid =
  let b = buf t.probe pid in
  T.enter b;
  let dsts = Workload.destinations t.workload ~me:pid in
  T.exit b T.Workload;
  send_all t ~src:pid dsts

let reply_sends t pid ~src =
  let b = buf t.probe pid in
  T.enter b;
  let dsts = Workload.reply_destinations t.workload ~me:pid ~src in
  T.exit b T.Workload;
  send_all t ~src:pid dsts

let rec arm_send_timer t pid =
  let b = buf t.probe pid in
  T.enter b;
  let delay = Workload.next_send_delay t.workload ~me:pid in
  T.exit b T.Workload;
  ignore
    (Engine.schedule_in t.engine ~pin:pid ~delay (fun () ->
         let b = buf t.probe pid in
         T.enter b;
         if Engine.is_up t.engine pid then spontaneous_sends t pid;
         arm_send_timer t pid;
         T.exit b T.Handler))

let rec arm_ckpt_timer t pid =
  let b = buf t.probe pid in
  T.enter b;
  let delay = Workload.next_basic_ckpt_delay t.workload ~me:pid in
  T.exit b T.Workload;
  ignore
    (Engine.schedule_in t.engine ~pin:pid ~delay (fun () ->
         let b = buf t.probe pid in
         T.enter b;
         if Engine.is_up t.engine pid then begin
           T.enter b;
           Middleware.basic_checkpoint t.middlewares.(pid)
             ~now:(Engine.now t.engine);
           T.exit b T.Basic_ckpt
         end;
         arm_ckpt_timer t pid;
         T.exit b T.Handler))

(* --- receive path ---------------------------------------------------- *)

let handle_message t pid ~src msg =
  let b = buf t.probe pid in
  T.enter b;
  (match msg with
  | Sim_msg.App m ->
    T.enter b;
    Middleware.receive t.middlewares.(pid) m ~now:(Engine.now t.engine);
    T.exit b T.Receive;
    reply_sends t pid ~src
  | Sim_msg.Gc_query _ | Sim_msg.Gc_reply _ | Sim_msg.Gc_collect _ ->
    invalid_arg "Traced_run: coordinated GC messages are not replicated");
  T.exit b T.Handler

(* --- global actions: faults, recovery, sampling ----------------------- *)

let global_action t kind f =
  let tr = t.probe.tr in
  T.set_global tr true;
  T.enter tr.T.global_buf;
  f ();
  T.exit tr.T.global_buf kind;
  T.set_global tr false

let crash t pid =
  global_action t T.Global (fun () ->
      Engine.set_up t.engine pid false;
      t.crashed_pending <- pid :: t.crashed_pending)

let recover t pid =
  global_action t T.Global (fun () ->
      Engine.set_up t.engine pid true;
      match t.crashed_pending with
      | [] -> ()
      | faulty ->
        t.crashed_pending <- [];
        Engine.flush_in_flight t.engine;
        let release_outdated p ~li =
          match t.collectors.(p) with
          | Some lgc -> Rdt_lgc.release_outdated lgc ~li
          | None -> ()
        in
        let b = t.probe.tr.T.global_buf in
        T.enter b;
        let report =
          Session.run ~middlewares:t.middlewares ~faulty
            ~knowledge:t.cfg.Sim_config.knowledge ~release_outdated
        in
        T.exit b T.Recovery;
        t.recoveries <- report :: t.recoveries)

let sample t =
  let time = Engine.now t.engine in
  let total = ref 0 in
  Array.iteri
    (fun pid mw ->
      let count = Stable_store.count (Middleware.store mw) in
      total := !total + count;
      Series.add_int t.series_retained.(pid) ~time ~value:count)
    t.middlewares;
  Series.add_int t.series_total ~time ~value:!total;
  if durable t then begin
    let live = ref 0 and dead = ref 0 in
    Array.iter
      (function
        | Some ls ->
          let s = Log_store.stats ls in
          live := !live + s.Log_store.live_bytes;
          dead := !dead + s.Log_store.dead_bytes
        | None -> ())
      t.log_stores;
    Series.add_int t.series_store_live_bytes ~time ~value:!live;
    Series.add_int t.series_store_dead_bytes ~time ~value:!dead
  end;
  if t.cfg.Sim_config.protocol.Rdt_protocols.Protocol.rdt then begin
    let snaps = Array.map Session.snapshot_of t.middlewares in
    let li = Global_gc.last_interval_vector snaps in
    let optimal = ref 0 in
    for pid = 0 to t.cfg.Sim_config.n - 1 do
      optimal := !optimal + Global_gc.theorem1_retained_count snaps ~me:pid ~li
    done;
    Series.add_int t.series_optimal ~time ~value:!optimal
  end

let rec arm_sample_timer t =
  ignore
    (Engine.schedule_in t.engine ~delay:t.cfg.Sim_config.sample_interval
       (fun () ->
         global_action t T.Sampling (fun () ->
             let before = Gc.minor_words () in
             sample t;
             t.probe.sampling_alloc_words <-
               t.probe.sampling_alloc_words +. (Gc.minor_words () -. before));
         arm_sample_timer t))

(* --- wrapped seams ---------------------------------------------------- *)

(* The store's durability mirror with a span around each Log_store call.
   On the memory backend it only counts eliminations (every [b_eliminate]
   under RDT-LGC is a collection; rollbacks use [b_truncate_above]). *)
let traced_backend p pid (inner : Stable_store.backend option) =
  let counted () =
    let sh = p.shard_of.(pid) in
    p.eliminated.(sh) <- p.eliminated.(sh) + 1
  in
  match inner with
  | None ->
    {
      Stable_store.b_store = (fun _ -> ());
      b_eliminate = (fun _ -> counted ());
      b_truncate_above = (fun ~index:_ -> ());
    }
  | Some inner ->
    {
      Stable_store.b_store =
        (fun e ->
          let b = buf p pid in
          T.enter b;
          inner.b_store e;
          T.exit b T.Store_append);
      b_eliminate =
        (fun e ->
          counted ();
          let b = buf p pid in
          T.enter b;
          inner.b_eliminate e;
          T.exit b T.Store_eliminate);
      b_truncate_above =
        (fun ~index ->
          let b = buf p pid in
          T.enter b;
          inner.b_truncate_above ~index;
          T.exit b T.Store_eliminate);
    }

let traced_hooks p pid (h : Middleware.hooks) =
  {
    Middleware.on_new_dependency =
      (fun j ->
        let b = buf p pid in
        T.enter b;
        h.on_new_dependency j;
        T.exit b T.Gc);
    on_checkpoint_stored =
      (fun i ->
        let b = buf p pid in
        T.enter b;
        h.on_checkpoint_stored i;
        T.exit b T.Gc);
    on_rollback =
      (fun ~li ->
        let b = buf p pid in
        T.enter b;
        h.on_rollback ~li;
        T.exit b T.Gc);
  }

(* --- construction ----------------------------------------------------- *)

(* Runs [f] as a span of [kind] in the global buffer (setup only). *)
let setup_span tr kind f =
  let b = tr.T.global_buf in
  T.enter b;
  let r = f () in
  T.exit b kind;
  r

let create (cfg : Sim_config.t) =
  Sim_config.validate cfg;
  (match cfg.gc with
  | Sim_config.Local -> ()
  | Sim_config.No_gc | Sim_config.Local_lazy _ | Sim_config.Coordinated _
  | Sim_config.Simple _ | Sim_config.Oracle_periodic _ ->
    invalid_arg "Traced_run: only gc = Local is replicated");
  (* the engine clamps its shard count to [n] *)
  let tr = T.create ~shards:(min cfg.shards cfg.n) in
  T.set_global tr true;
  let engine =
    setup_span tr T.Engine_setup (fun () ->
        Engine.create ~n:cfg.n ~seed:cfg.seed ~net:cfg.net ~shards:cfg.shards
          ~autotune:cfg.autotune ())
  in
  assert (Engine.shards engine = T.shards tr);
  let shards = Engine.shards engine in
  let probe =
    {
      tr;
      shard_of = Array.init cfg.n (Engine.shard_of_pid engine);
      sends = Array.make shards 0;
      piggyback_words = Array.make shards 0;
      eliminated = Array.make shards 0;
      trace_events = 0;
      sampling_alloc_words = 0.0;
    }
  in
  let trace = Trace.create ~n:cfg.n in
  if Engine.parallel_dispatch engine then
    Trace.set_order_source trace (Engine.read_stamp engine);
  Trace.on_event trace (fun _ -> probe.trace_events <- probe.trace_events + 1);
  let init_by_shard : 'a. (int -> 'a) -> 'a array =
   fun f ->
    Array.concat
      (List.init shards (fun s ->
           let lo, hi = Engine.shard_bounds engine s in
           Array.init (hi - lo) (fun i -> f (lo + i))))
  in
  let log_stores =
    init_by_shard (fun me ->
        match cfg.store with
        | Sim_config.Memory -> None
        | Sim_config.Durable { dir; config } ->
          Some
            (setup_span tr T.Store_open (fun () ->
                 Log_store.create ~config ~pid:me
                   ~dir:(Filename.concat dir (Printf.sprintf "p%d" me))
                   ())))
  in
  let middlewares =
    init_by_shard (fun me ->
        let store = Stable_store.create ~me in
        Stable_store.set_backend store
          (traced_backend probe me (Option.map Log_store.backend log_stores.(me)));
        setup_span tr T.Mw_create (fun () ->
            Middleware.create ~n:cfg.n ~me ~protocol:cfg.protocol ~trace
              ~ckpt_bytes:cfg.ckpt_bytes ~store ()))
  in
  let collectors =
    init_by_shard (fun me ->
        let mw = middlewares.(me) in
        let lgc =
          setup_span tr T.Gc (fun () ->
              Rdt_lgc.create ~me ~store:(Middleware.store mw)
                ~dv:(Middleware.dv mw) ~n:cfg.n)
        in
        Middleware.set_hooks mw (traced_hooks probe me (Rdt_lgc.hooks lgc));
        Some lgc)
  in
  let workload =
    setup_span tr T.Workload (fun () ->
        Workload.create cfg.workload ~n:cfg.n
          ~rng:(Prng.split (Engine.rng engine))
          ~shards ())
  in
  let t =
    {
      cfg;
      engine;
      trace;
      middlewares;
      collectors;
      log_stores;
      workload;
      series_retained =
        Array.init cfg.n (fun pid ->
            Series.create ~name:(Printf.sprintf "retained-p%d" pid));
      series_total = Series.create ~name:"retained-total";
      series_optimal = Series.create ~name:"retained-optimal";
      series_store_live_bytes = Series.create ~name:"store-live-bytes";
      series_store_dead_bytes = Series.create ~name:"store-dead-bytes";
      crashed_pending = [];
      recoveries = [];
      probe;
    }
  in
  setup_span tr T.Engine_setup (fun () ->
      for pid = 0 to cfg.n - 1 do
        Engine.set_receiver engine pid (fun ~src msg ->
            handle_message t pid ~src msg);
        arm_send_timer t pid;
        arm_ckpt_timer t pid
      done;
      List.iter
        (fun { Sim_config.crash_at; pid; repair_after } ->
          ignore (Engine.schedule engine ~at:crash_at (fun () -> crash t pid));
          ignore
            (Engine.schedule engine ~at:(crash_at +. repair_after) (fun () ->
                 recover t pid)))
        cfg.faults;
      arm_sample_timer t);
  T.set_global tr false;
  t

let run t =
  Engine.run ~until:t.cfg.Sim_config.duration t.engine;
  Trace.finalize t.trace

let sync_stores t =
  let tr = t.probe.tr in
  T.set_global tr true;
  Array.iter
    (function
      | Some ls ->
        T.enter tr.T.global_buf;
        Log_store.sync ls;
        T.exit tr.T.global_buf T.Store_sync
      | None -> ())
    t.log_stores;
  T.set_global tr false

let close_stores t =
  Array.iter (function Some ls -> Log_store.close ls | None -> ()) t.log_stores

(* [Runner.summary], computed from the replica's own state. *)
let summary t : Runner.summary =
  let stores = Array.map Middleware.store t.middlewares in
  let store_stats = Array.map Stable_store.stats stores in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let engine_stats = Engine.stats t.engine in
  let log_stats =
    Array.to_list t.log_stores |> List.filter_map (Option.map Log_store.stats)
  in
  let sum_log f = List.fold_left (fun acc s -> acc + f s) 0 log_stats in
  let n = t.cfg.Sim_config.n in
  {
    n;
    duration = t.cfg.Sim_config.duration;
    protocol = t.cfg.Sim_config.protocol.Rdt_protocols.Protocol.id;
    gc = Sim_config.gc_policy_name t.cfg.Sim_config.gc;
    basic_checkpoints = sum Middleware.basic_count t.middlewares;
    forced_checkpoints = sum Middleware.forced_count t.middlewares;
    stored_total =
      sum (fun (s : Stable_store.stats) -> s.stored_total) store_stats;
    eliminated_total =
      sum (fun (s : Stable_store.stats) -> s.eliminated_total) store_stats;
    final_retained = Array.map Stable_store.count stores;
    peak_retained =
      Array.map (fun (s : Stable_store.stats) -> s.peak_count) store_stats;
    peak_retained_global =
      (let m = Series.max_value t.series_total in
       if m = neg_infinity then 0 else int_of_float m);
    mean_total_retained = Rdt_metrics.Stats.mean (Series.stats t.series_total);
    mean_optimal_retained =
      (if Series.length t.series_optimal = 0 then nan
       else Rdt_metrics.Stats.mean (Series.stats t.series_optimal));
    app_messages = engine_stats.Engine.sent;
    piggyback_words = engine_stats.Engine.sent * (n + 1);
    control_messages = 0;
    gc_rounds = 0;
    recovery_sessions = List.length t.recoveries;
    checkpoints_rolled_back =
      List.fold_left
        (fun acc (r : Session.report) -> acc + r.checkpoints_rolled_back)
        0 t.recoveries;
    store_segments = sum_log (fun (s : Log_store.stats) -> s.segments);
    store_live_bytes = sum_log (fun (s : Log_store.stats) -> s.live_bytes);
    store_dead_bytes = sum_log (fun (s : Log_store.stats) -> s.dead_bytes);
    store_compactions = sum_log (fun (s : Log_store.stats) -> s.compactions);
  }

(* Fields of two summaries that differ, by name; [] when identical. *)
let summary_diff (a : Runner.summary) (b : Runner.summary) =
  let same_float x y = Float.equal x y in
  let checks =
    [
      ("n", a.n = b.n);
      ("duration", same_float a.duration b.duration);
      ("protocol", String.equal a.protocol b.protocol);
      ("gc", String.equal a.gc b.gc);
      ("basic_checkpoints", a.basic_checkpoints = b.basic_checkpoints);
      ("forced_checkpoints", a.forced_checkpoints = b.forced_checkpoints);
      ("stored_total", a.stored_total = b.stored_total);
      ("eliminated_total", a.eliminated_total = b.eliminated_total);
      ("final_retained", a.final_retained = b.final_retained);
      ("peak_retained", a.peak_retained = b.peak_retained);
      ("peak_retained_global", a.peak_retained_global = b.peak_retained_global);
      ("mean_total_retained", same_float a.mean_total_retained b.mean_total_retained);
      ( "mean_optimal_retained",
        same_float a.mean_optimal_retained b.mean_optimal_retained );
      ("app_messages", a.app_messages = b.app_messages);
      ("piggyback_words", a.piggyback_words = b.piggyback_words);
      ("control_messages", a.control_messages = b.control_messages);
      ("gc_rounds", a.gc_rounds = b.gc_rounds);
      ("recovery_sessions", a.recovery_sessions = b.recovery_sessions);
      ("checkpoints_rolled_back", a.checkpoints_rolled_back = b.checkpoints_rolled_back);
      ("store_segments", a.store_segments = b.store_segments);
      ("store_live_bytes", a.store_live_bytes = b.store_live_bytes);
      ("store_dead_bytes", a.store_dead_bytes = b.store_dead_bytes);
      ("store_compactions", a.store_compactions = b.store_compactions);
    ]
  in
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks
