(** Persistent domain team for repeated barrier-synchronized rounds, and
    the project's one domain pool.

    A round re-invokes the {e same} [size] members — member [i] always
    processes index [i] — with a full barrier at the end of each round.
    The sharded simulation engine drives one round per conservative time
    window, so rounds are built to be cheap: a steady-state round
    allocates nothing (the job lives in a plain field, round start and
    completion travel through atomic counters), and members spin briefly
    on those counters before parking on a condition variable, so
    back-to-back windows avoid the mutex entirely while an idle team
    still sleeps.

    Publication: the release write that opens a round publishes the
    caller's plain (non-atomic) mutable state to the workers, and each
    worker's release decrement at the barrier publishes its writes back —
    these are the happens-before edges that let the engine hand plain
    shard state from one round's writer to the next round's reader.
    {!map} runs independent tasks (the experiment harness's simulation
    cells) on one round.  This is the project's designated home for
    [Domain]/[Mutex]/[Condition]/[Atomic] use — rdt_lint's det/* rules
    flag those primitives anywhere else. *)

type t

val create : size:int -> t
(** Spawn [size - 1] worker domains (the caller is member 0).
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

val run : t -> (int -> unit) -> unit
(** [run t f] executes [f i] for every member [i] in [0 .. size-1], [f 0]
    on the calling domain, and returns once {e all} members finished (the
    barrier).  If any [f i] raises, the exception of the lowest failing
    index is re-raised in the caller after the barrier completes, so
    error propagation is independent of domain scheduling.  Not
    reentrant: do not call {!run} from inside [f]. *)

val run_sub : t -> active:int -> (int -> unit) -> unit
(** {!run} over members [0 .. active-1] only ([active] is clamped to
    [size]); the remaining members stay parked.  Lets one long-lived team
    serve engines of different shard counts.  With [active = 1] the job
    runs inline on the caller and no worker is woken. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs] on one round of up
    to [size t] members and returns the results in the order of [xs],
    whichever member computed them.  Members claim input indices from a
    shared atomic counter, so load balances dynamically.  If any
    application raises, the exception of the lowest failing input index
    is re-raised in the caller after every item finished.  A [size = 1]
    team runs every item on the caller, in input order.  [f] may run
    rounds of {e
    another} team (e.g. a sharded engine), but must not call back into
    [t]. *)

val self_index : unit -> int
(** Index of the round member the current domain is executing as; [0] on
    any domain outside a round (in particular the caller between rounds).
    A round started from inside another team's job sees its own indices:
    the caller runs as member [0] and gets its outer index back when the
    round ends.  Backed by domain-local storage. *)

val shutdown : t -> unit
(** Join the worker domains; idempotent.  The team must not be used
    afterwards. *)

val hardware_parallelism : unit -> int
(** [Domain.recommended_domain_count ()], re-exported so engine-side
    dispatch policy (parallel teams vs inline windowed execution) can ask
    without using [Domain] outside this library. *)

(** {2 The process-wide shared team}

    Spawning domains dominates team setup, so repeated short runs
    (benchmarks, sweeps, tests) borrow one process-wide team instead of
    spawning per run.  Borrowing is exclusive: a second concurrent
    borrower gets [None] and should fall back to a private {!create}d
    team.  The shared team grows when a borrower asks for more members
    than it has, and is joined automatically at process exit. *)

val shared_acquire : size:int -> t option
(** Borrow the shared team with at least [size] members, growing it if
    needed; [None] if another borrower currently holds it. *)

val shared_release : t -> unit
(** Return a team obtained from {!shared_acquire}.  Never shuts it down;
    releasing a stale team (one the registry has since replaced) is a
    no-op. *)
