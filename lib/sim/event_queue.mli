(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by timestamp; ties are broken first by an optional
    caller-supplied canonical key [(u, v)] ({!add_keyed}), then by a
    monotonically increasing sequence number assigned at insertion.  The
    plain {!add}/{!add_unit} entry points use [u = v = 0], so their ties
    resolve in insertion order (the historical semantics); the sharded
    engine uses {!add_keyed} with interleaving-independent keys so that
    the order of simultaneous events does not depend on which shard
    inserted first.  Entries can be cancelled lazily via the handle
    returned by {!add}.

    Heap entries are recycled through an internal free list: a steady-state
    schedule/fire loop performs no allocation beyond the handle box, and
    none at all through {!add_unit}.  A pooled entry retains the last value
    it carried until it is reused; the pool never shrinks, so a queue that
    once held [k] events keeps O(k) entries alive — both are deliberate
    trade-offs for an allocation-free simulator hot path. *)

type 'a t

type handle
(** Token identifying a scheduled entry; used for cancellation. *)

val create : unit -> 'a t

val add : 'a t -> time:float -> 'a -> handle
(** [add q ~time v] schedules [v] at [time] and returns its handle. *)

val add_unit : 'a t -> time:float -> 'a -> unit
(** {!add} without materializing a handle — the common case (the engine's
    message deliveries are never cancelled individually).  Allocation-free
    once the pool is warm. *)

val add_keyed : 'a t -> time:float -> u:int -> v:int -> 'a -> handle
(** [add_keyed q ~time ~u ~v x] schedules [x] with an explicit canonical
    tie-break key: entries at equal [time] order by [(u, v)]
    lexicographically (before falling back to insertion order).  Keys are
    how the sharded engine makes simultaneous-event order independent of
    insertion interleaving. *)

val add_keyed_unit : 'a t -> time:float -> u:int -> v:int -> 'a -> unit
(** {!add_keyed} without materializing a handle; allocation-free once the
    pool is warm. *)

val cancel : 'a t -> handle -> unit
(** [cancel q h] marks the entry as cancelled; it will be skipped when it
    reaches the head of the queue.  Cancelling twice, or cancelling an
    already-popped entry, is a no-op — handles are generation-stamped, so
    this holds even after the underlying pooled entry has been reused for
    a later event. *)

val cancel_handle : handle -> unit
(** {!cancel} without naming the queue: handles embed enough of their
    owner to cancel from anywhere (the sharded engine routes actions to
    per-shard queues the caller never sees). *)

val pop : 'a t -> (float * 'a) option
(** Removes and returns the earliest non-cancelled entry, or [None] if the
    queue is (effectively) empty. *)

val last_u : 'a t -> int
val last_v : 'a t -> int
(** Canonical key of the entry most recently returned by {!pop} — exposed
    as queue state so the engine's hot loop reads it without a wider
    boxed result.  Meaningless before the first pop. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest non-cancelled entry, without removing it. *)

val next_time : 'a t -> float
(** {!peek_time} without the option: the earliest non-cancelled timestamp,
    or [infinity] when the queue is (effectively) empty.  Small enough to
    inline across modules, so the sharded engine's window loop reads queue
    heads without boxing a float or an option. *)

val is_empty : 'a t -> bool
(** [true] iff no non-cancelled entry remains. *)

val length : 'a t -> int
(** Number of live (non-cancelled) entries. *)

val pool_size : 'a t -> int
(** Number of recycled entries currently waiting on the free list —
    introspection for the pool-invariant tests. *)
