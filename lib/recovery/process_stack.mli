(** One process's checkpointing stack: stable store (with its optional
    durability backend), {!Rdt_protocols.Middleware} and, when asked, the
    paper's {!Rdt_gc.Rdt_lgc} collector hooked into the middleware at
    receive, checkpoint store and rollback (Algorithms 1-3).

    The only place a stack is built: the simulator's runner, scripted
    executions and the live node (fresh boot and respawn) all go through
    it, so simulated and deployed processes run the same composition. *)

type t

val create :
  n:int ->
  me:int ->
  protocol:Rdt_protocols.Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  ?backend:Rdt_storage.Stable_store.backend ->
  lgc:bool ->
  unit ->
  t
(** A fresh process whose [s^0] is stored through [backend], if any. *)

val restore :
  n:int ->
  me:int ->
  protocol:Rdt_protocols.Protocol.t ->
  trace:Rdt_ccp.Trace.t ->
  ?ckpt_bytes:int ->
  ?backend:Rdt_storage.Stable_store.backend ->
  lgc:bool ->
  entries:Rdt_storage.Stable_store.entry list ->
  unit ->
  t
(** A process respawned over the checkpoints that survived its crash
    ([entries], ascending); [backend] sees only new mutations.  The
    preconditions of {!Rdt_protocols.Middleware.restore} apply: [trace]
    holds the surviving history and a recovery-session rollback follows.
    @raise Invalid_argument if [entries] is empty. *)

val middleware : t -> Rdt_protocols.Middleware.t
val collector : t -> Rdt_gc.Rdt_lgc.t option
val store : t -> Rdt_storage.Stable_store.t

val release_outdated : t -> li:int array -> unit
(** {!Rdt_gc.Rdt_lgc.release_outdated} when there is a collector. *)

val session :
  t array -> faulty:int list -> knowledge:Session.knowledge -> Session.report
(** {!Session.run} over these processes, releasing through
    {!release_outdated}. *)
