(** Per-process checkpointing middleware.

    Owns the process's dependency vector, stable store and protocol
    instance; records everything in the shared {!Rdt_ccp.Trace.t}; and
    exposes the two-sided message API the simulation driver uses
    ({!prepare_send} / {!receive}).  Garbage collectors attach through
    {!hooks}, which are invoked at exactly the points where the paper's
    RDT-LGC runs (Algorithm 2): when a message brings new causal
    information, and when a checkpoint has just been stored (before the
    local dependency-vector entry is incremented).

    The paper's remark on merged implementations (Section 4.5) is honored:
    a forced checkpoint triggered by a receive is stored *before* the
    receive is processed and before any garbage collection related to the
    receive runs. *)

type hooks = {
  on_new_dependency : int -> unit;
      (** [on_new_dependency j]: the receive being processed increased
          [DV.(j)] (called after the entry was updated) *)
  on_checkpoint_stored : int -> unit;
      (** [on_checkpoint_stored index]: checkpoint [s^index] was written to
          stable storage; the local DV entry has not been incremented yet *)
  on_rollback : li:int array -> unit;
      (** a rollback completed: storage truncated, DV restored from the
          rollback target and incremented.  [li] is the last-interval
          vector [LI] (global knowledge) or the process's own DV (see
          paper, Algorithm 3 and its DV variant) *)
}

val no_hooks : hooks

type message = {
  msg_id : int;
  src : int;
  control : Control.t;
}
(** What travels on the wire (the synthetic application payload carries no
    information of its own). *)

type kind = Basic | Forced

type t

val create :
  n:int ->
  me:int ->
  protocol:Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  store:Rdt_storage.Stable_store.t ->
  unit ->
  t
(** Creates the middleware over the empty [store] and immediately stores
    the initial checkpoint [s^0] (every process starts by storing a stable
    checkpoint), through [store]'s durability backend if one is attached.
    Hooks attached afterwards with {!set_hooks} miss [s^0]:
    {!Rdt_gc.Rdt_lgc.create} scans the store for exactly this bootstrap,
    and [Rdt_recovery.Process_stack] composes the two.
    @raise Invalid_argument if [store] is not empty. *)

val restore :
  n:int ->
  me:int ->
  protocol:Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  store:Rdt_storage.Stable_store.t ->
  unit ->
  t
(** Rebuild the middleware of a process that crashed and lost its volatile
    state: [store] is the restored stable store
    ({!Rdt_storage.Stable_store.restore} over what the durable log
    recovered) and [trace] must already contain the process's surviving
    event history (the live runtime replays it from the coordinator's
    transcript).  The DV, application state and archive are recreated from
    the last surviving checkpoint, as in Algorithm 3; no new checkpoint is
    stored.  The caller must drive a recovery-session rollback before
    resuming normal operation — until then the state is provisional, and
    the protocol instance restarts interval-fresh (valid for the RDT
    protocols, whose per-interval flags reset at each checkpoint; not for
    monotone-index protocols like BCS).
    @raise Invalid_argument if [store] is empty. *)

val set_hooks : t -> hooks -> unit

val me : t -> int
val n : t -> int
val dv : t -> Rdt_causality.Dependency_vector.t
(** The live dependency vector — [DV(v_i)].  Do not mutate. *)

val store : t -> Rdt_storage.Stable_store.t

val archive : t -> Rdt_storage.Dv_archive.t
(** Archive of the dependency vectors of every checkpoint ever taken
    (survives garbage collection; rewound on rollback).  Feeds the
    decentralized tracking computations of [Rdt_recovery.Tracking]. *)

val protocol_name : t -> string

val current_interval : t -> int
(** [DV(v_i).(i)] — index of the current checkpoint interval; also the
    index the next stable checkpoint will get. *)

val last_checkpoint_index : t -> int

val basic_checkpoint : t -> now:float -> unit
(** Take a basic (autonomous) checkpoint. *)

val prepare_send : t -> dst:int -> now:float -> message
(** Build an application message: runs the protocol's send rule and
    records the send in the trace.  For checkpoint-after-send protocols
    the forced checkpoint is stored right after the send event (the
    message itself carries the pre-checkpoint dependency vector). *)

val receive : t -> message -> now:float -> unit
(** Process a delivered message: consult the protocol (taking a forced
    checkpoint first if required), record the receive, merge the
    dependency vector and fire GC hooks for each new dependency. *)

val rollback : t -> to_index:int -> li:int array option -> unit
(** Roll back to stable checkpoint [s^to_index]: eliminate later
    checkpoints from storage, restore DV from the target's stored vector
    and increment the local entry (paper, Algorithm 3 lines 4-6), truncate
    the trace, then fire [on_rollback] with [li] (or with the restored DV
    when no global information is available). *)

val restart_after_crash : t -> now:float -> unit
(** Crash recovery of the failed process itself: volatile state is lost;
    the process resumes from its last stable checkpoint.  Equivalent to
    [rollback ~to_index:(last stable) ~li:None]. *)

val app_state : t -> int
(** The process's current (volatile) application state — a deterministic
    digest of its communication history.  Checkpoints capture it; a
    rollback restores the captured value, so tests and demos can observe
    state restoration directly. *)

val basic_count : t -> int
val forced_count : t -> int

val checkpoint_count : t -> int
(** [basic_count + forced_count + 1] (counting [s^0]). *)
