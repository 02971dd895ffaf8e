(** Deterministic discrete-event execution engine, optionally sharded
    across OCaml domains.

    An engine owns the virtual clock, the event queues and the channel
    model.  Processes are identified by integers [0 .. n-1].  Two kinds of
    events exist: message deliveries (created by {!send} through the
    network model) and scheduled actions (arbitrary closures, used for
    workload timers, basic-checkpoint timers and fault injection).

    {2 Sharding}

    With [shards = k > 1], processes are partitioned into [k] contiguous
    blocks, each with its own event queue, and {!run} advances the blocks
    in rounds bounded by conservative time windows.  Per round, shard [d]
    with earliest pending event [e_d] processes everything strictly below

    {[ hi_d = min(gb, min_{s<>d} e_s + L, e_d + 2L) ]}

    where the lookahead [L] is the network's minimum message delay (hence
    [shards > 1] requires [min_delay > 0]) and [gb] is the next global
    action or the run limit.  Any cross-shard influence descends from an
    event currently queued somewhere, so no arrival into [d] can land
    below [hi_d]; shards clustered at the same virtual time get the
    classic symmetric [w + L] window, while a shard running ahead of the
    field advances up to [2L] per round ([?autotune:false] forces the
    symmetric window everywhere).

    Dispatch is hardware-aware: when the host has at least [k] cores,
    rounds run on a persistent team of pinned domains (borrowed from the
    process-wide {!Rdt_parallel.Barrier_team}), with cross-shard sends
    buffered in pooled per-pair mailboxes drained at the round barrier.
    When it does not, the same rounds run inline on the calling domain,
    one shard slice after another, with cross-shard sends inserted
    straight into the destination queue (the arrival lies beyond every
    slice boundary of the round) — no team, no barriers, no mailboxes.
    Steady-state execution allocates nothing on either path.

    Execution order is {e identical} at every shard count: simultaneous
    events are ordered by canonical keys that are pure functions of the
    simulation (destination/owner process and per-channel or per-process
    counters) rather than insertion order, and the sequential executor
    replays the same order.  A simulation is therefore a pure function of
    [(seed, config)] — not of [shards], which only buys wall-clock time.

    Events split into {e routed} events — deliveries, and actions given
    an [owner] or [pin] — which execute on the process's shard, and
    {e global} actions (no [owner]/[pin]) which execute at a window
    barrier on the calling domain, after every routed event of the same
    timestamp.  Handlers of routed events must stay within their shard:
    they may send from their own process and schedule actions routed to
    processes of the same shard, but mutating state owned by another
    shard, scheduling globals, {!set_up} or {!flush_in_flight} from a
    routed handler are errors (the engine raises on the ones it can see).
    Global actions run single-threaded and may do all of the above.

    Processes can be marked down ({!set_up}); deliveries and owned actions
    addressed to a down process are silently discarded, which models the
    crash semantics of the paper (volatile state lost, no processing while
    down).  {!flush_in_flight} drops every message currently in transit,
    which a centralized recovery session uses to discard in-transit
    messages (the paper's CCP excludes lost and in-transit messages). *)

type 'msg t

type stats = {
  mutable sent : int;  (** messages handed to {!send} *)
  mutable delivered : int;  (** deliveries executed *)
  mutable lost : int;  (** dropped by the channel loss model *)
  mutable dropped_down : int;  (** arrived while the destination was down *)
  mutable flushed : int;  (** discarded by {!flush_in_flight} *)
  mutable events : int;  (** total events executed *)
}

val create :
  n:int ->
  seed:int ->
  net:Network.config ->
  ?shards:int ->
  ?autotune:bool ->
  unit ->
  'msg t
(** [?shards] (default [1]) is clamped to [n].  [?autotune] (default
    [true]) enables per-shard asymmetric window boundaries and
    hardware-aware dispatch (rounds inline on the calling domain when the
    host has fewer cores than shards); with [false], every round uses the
    symmetric [w + L] window on a full domain team regardless of the
    host.  Neither setting affects the event order — only wall-clock.
    @raise Invalid_argument if [shards > 1] and [net.min_delay <= 0]. *)

val n : _ t -> int

val shards : _ t -> int
(** Effective shard count (after clamping to [n]). *)

val shard_of_pid : _ t -> int -> int
(** Which shard executes the given process — a pure function of
    [(n, shards)].  Used by callers that keep per-shard counters. *)

val parallel_dispatch : _ t -> bool
(** Whether callbacks may observe events out of canonical order: [true]
    for every sharded engine, whose rounds run shard slice by shard slice
    (across a domain team, or one after another on the calling domain).
    [false] only for single-shard engines, whose events run in canonical
    order already, so consumers such as the trace can skip deferred
    stamp-merging. *)

val shard_bounds : _ t -> int -> int * int
(** [shard_bounds t s] is the contiguous pid range [\[lo, hi)] owned by
    shard [s] — the iteration space for callers that build or scan
    per-process state shard by shard (e.g. the Runner's shard-local
    blocks). *)

val now : _ t -> float
(** Current virtual time of the calling context: inside an event handler,
    the executing shard's clock (= the event's timestamp); at a barrier or
    outside {!run}, the global clock. *)

val rng : _ t -> Prng.t
(** The engine's root generator; split it rather than drawing directly if
    you need an independent stream. *)

val network : _ t -> Network.t

val current_stamp : _ t -> float * int * int
(** Canonical key [(time, u, v)] of the event the calling context is
    executing — the engine-wide total order on events.  Outside any event,
    returns a fresh pre-run stamp that sorts before every event (and
    advances per call). *)

val read_stamp : _ t -> Stamp.t -> unit
(** {!current_stamp} written into a caller-owned cell instead of a fresh
    tuple — the allocation-free form the trace uses as its order source
    in sharded runs to merge per-process logs deterministically (one call
    per trace record; a tuple per record was a measurable share of the
    multi-shard allocation storm, DESIGN.md §13). *)

val set_receiver : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
(** [set_receiver t p f] installs the delivery callback of process [p].
    Must be called for every process before the first delivery. *)

val send : 'msg t -> ?reliable:bool -> src:int -> dst:int -> 'msg -> unit
(** Transmit a message through the channel model.  Delivery (if the message
    is not lost) happens at a later virtual time, via the receiver
    callback of [dst].  [?reliable] (default [false]) bypasses the loss
    model — used for the control messages of coordinated GC baselines,
    which assume reliable channels (the paper's point of contrast).
    From a routed handler, [src] must belong to the executing shard. *)

val schedule :
  'msg t ->
  ?owner:int ->
  ?pin:int ->
  at:float ->
  (unit -> unit) ->
  Event_queue.handle
(** [schedule t ?owner ?pin ~at f] runs [f] at virtual time [at].
    [owner] routes the action to that process's shard {e and} skips it if
    the process is down when it fires; [pin] routes without the skip
    (timers that must survive their process being down, e.g. to re-arm).
    With neither, the action is {e global}: it executes at a window
    barrier after all routed events of the same timestamp, and must not
    be scheduled from inside a routed handler of a sharded engine.
    [at] must not precede the current time. *)

val schedule_in :
  'msg t ->
  ?owner:int ->
  ?pin:int ->
  delay:float ->
  (unit -> unit) ->
  Event_queue.handle
(** Convenience wrapper: {!schedule} at [now + delay]. *)

val cancel : 'msg t -> Event_queue.handle -> unit

val is_up : _ t -> int -> bool

val set_up : _ t -> int -> bool -> unit
(** Not callable from a routed handler of a sharded engine (crash and
    recovery are global actions). *)

val flush_in_flight : _ t -> unit
(** Drop every message currently in transit and reset FIFO channel order.
    Not callable from a routed handler of a sharded engine. *)

val step : _ t -> bool
(** Execute the next event ([shards = 1]) or the next conservative round
    on the calling domain ([shards > 1] — the same event order as {!run},
    without parallel dispatch).  Returns [false] if nothing was left. *)

val run : ?until:float -> _ t -> unit
(** Execute events until the queues are empty or the next event is strictly
    after [until].  When stopped by [until], the clock is advanced to
    [until].  With [shards > 1] and enough cores this borrows the
    process-wide domain team for the duration of the call (falling back
    to a private team if it is busy); with fewer cores than shards the
    rounds run inline on the calling domain. *)

val stats : _ t -> stats
(** Counters merged across shards (a fresh record; mutating it does not
    affect the engine). *)
