(* Span recorder for the traced run.  Spans are opened and closed around
   calls into each layer from the benchmark's own code; nothing inside
   the library under test is instrumented.

   Each engine shard records into its own buffer (keyed by
   [Engine.shard_of_pid]), so worker domains never share a mutable cell.
   Setup, global actions (crash, recovery, sampling) and the final sync
   run on the calling domain while every shard is parked; they record
   into one extra buffer, selected by [set_global]. *)

type kind =
  | Handler  (** a routed engine event, timer or delivery (top level) *)
  | Engine_setup  (** engine creation, timer arming, fault scheduling *)
  | Global  (** crash and repair actions outside the recovery session *)
  | Workload
  | Send
  | Receive
  | Basic_ckpt
  | Mw_create
  | Gc
  | Store_open
  | Store_append
  | Store_eliminate
  | Store_sync
  | Sampling
  | Recovery

let kinds =
  [|
    Handler; Engine_setup; Global; Workload; Send; Receive; Basic_ckpt;
    Mw_create; Gc; Store_open; Store_append; Store_eliminate; Store_sync;
    Sampling; Recovery;
  |]

let n_kinds = Array.length kinds

let index = function
  | Handler -> 0
  | Engine_setup -> 1
  | Global -> 2
  | Workload -> 3
  | Send -> 4
  | Receive -> 5
  | Basic_ckpt -> 6
  | Mw_create -> 7
  | Gc -> 8
  | Store_open -> 9
  | Store_append -> 10
  | Store_eliminate -> 11
  | Store_sync -> 12
  | Sampling -> 13
  | Recovery -> 14

(* The [lib/] module each span kind's self time belongs to. *)
let layer = function
  | Handler | Engine_setup | Global -> "sim"
  | Workload -> "workload"
  | Send | Receive | Basic_ckpt | Mw_create -> "protocols"
  | Gc -> "gc"
  | Store_open | Store_append | Store_eliminate | Store_sync -> "store"
  | Sampling -> "metrics"
  | Recovery -> "recovery"

(* Nesting never exceeds handler > receive > checkpoint store > append in
   practice; the stack is sized with room to spare. *)
let max_depth = 16

type buf = {
  self_ns : int array;  (** per kind: duration minus child spans *)
  total_ns : int array;  (** per kind: full duration *)
  calls : int array;
  starts : int array;
  child_ns : int array;
  mutable depth : int;
  mutable top_ns : int;  (** duration of the spans closed at depth 0 *)
  mutable receive_lat : int array;  (** inclusive receive durations *)
  mutable n_receive : int;
  mutable append_lat : int array;
  mutable n_append : int;
}

let make_buf () =
  {
    self_ns = Array.make n_kinds 0;
    total_ns = Array.make n_kinds 0;
    calls = Array.make n_kinds 0;
    starts = Array.make max_depth 0;
    child_ns = Array.make max_depth 0;
    depth = 0;
    top_ns = 0;
    receive_lat = Array.make 1024 0;
    n_receive = 0;
    append_lat = Array.make 1024 0;
    n_append = 0;
  }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enter_at b t =
  let d = b.depth in
  if d >= max_depth then failwith "Tracer: span nesting too deep";
  b.starts.(d) <- t;
  b.child_ns.(d) <- 0;
  b.depth <- d + 1

let push lat n v =
  let lat =
    if n < Array.length lat then lat
    else begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit lat 0 bigger 0 n;
      bigger
    end
  in
  lat.(n) <- v;
  lat

(* Closes the innermost open span as [kind] at time [t] and returns its
   duration.  The duration is charged to the parent as child time, so the
   parent's self time excludes it. *)
let exit_at b kind t =
  let d = b.depth - 1 in
  if d < 0 then failwith "Tracer: exit without enter";
  b.depth <- d;
  let dur = t - b.starts.(d) in
  let k = index kind in
  b.self_ns.(k) <- b.self_ns.(k) + dur - b.child_ns.(d);
  b.total_ns.(k) <- b.total_ns.(k) + dur;
  b.calls.(k) <- b.calls.(k) + 1;
  if d > 0 then b.child_ns.(d - 1) <- b.child_ns.(d - 1) + dur
  else b.top_ns <- b.top_ns + dur;
  (match kind with
  | Receive ->
    b.receive_lat <- push b.receive_lat b.n_receive dur;
    b.n_receive <- b.n_receive + 1
  | Store_append ->
    b.append_lat <- push b.append_lat b.n_append dur;
    b.n_append <- b.n_append + 1
  | Handler | Engine_setup | Global | Workload | Send | Basic_ckpt | Mw_create
  | Gc | Store_open | Store_eliminate | Store_sync | Sampling | Recovery ->
    ());
  dur

let enter b = enter_at b (now_ns ())
let exit b kind = ignore (exit_at b kind (now_ns ()))

type t = {
  shard_bufs : buf array;
  global_buf : buf;
  mutable global : bool;
}

let create ~shards =
  {
    shard_bufs = Array.init shards (fun _ -> make_buf ());
    global_buf = make_buf ();
    global = false;
  }

let shards t = Array.length t.shard_bufs

(* Written only from the calling domain while no window runs; worker
   domains read it inside windows, where it is always [false]. *)
let set_global t g = t.global <- g

let buf t shard = if t.global then t.global_buf else t.shard_bufs.(shard)
let all_bufs t = t.global_buf :: Array.to_list t.shard_bufs

let sum_over bufs f = List.fold_left (fun acc b -> acc + f b) 0 bufs
let self_ns t kind = sum_over (all_bufs t) (fun b -> b.self_ns.(index kind))
let calls t kind = sum_over (all_bufs t) (fun b -> b.calls.(index kind))

(* Window-side busy time of one shard: the top-level handler spans. *)
let busy_ns t shard = t.shard_bufs.(shard).total_ns.(index Handler)

let latencies t kind =
  let pick b =
    match kind with
    | Receive -> Array.sub b.receive_lat 0 b.n_receive
    | Store_append -> Array.sub b.append_lat 0 b.n_append
    | _ -> invalid_arg "Tracer.latencies: only Receive and Store_append"
  in
  let all = Array.concat (List.map pick (all_bufs t)) in
  Array.sort Int.compare all;
  all

(* --- percentiles ------------------------------------------------------- *)

(* The tail percentile a sample of [count] supports: the highest
   percentile (capped at 99) with at least ten samples beyond it, never
   below the median.  Fewer samples than that make a p99 a single
   outlier. *)
let tail_percentile count =
  if count <= 0 then 50
  else max 50 (min 99 (100 * (count - 10) / count))

(* Nearest-rank percentile of an ascending array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = ((p * n) + 99) / 100 in
    sorted.(max 0 (min (n - 1) (rank - 1)))
