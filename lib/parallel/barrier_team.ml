(* A persistent team of domains for repeated barrier-synchronized rounds.

   The sharded simulation engine needs the *same* [size] workers
   re-invoked every time window, each on its own fixed shard index, with
   a full barrier between rounds; [map] builds independent-task fan-out
   (the experiment harness) on one such round.  A steady-state round
   allocates nothing: the job is stored in a plain field (no option box),
   round start and completion are signalled through atomic counters, and
   members spin briefly on those counters before parking on a condition
   variable — so back-to-back windows cost a few cache-line bounces, not
   a mutex convoy, while an idle team still sleeps.

   The caller's domain acts as member 0 of every round; [size - 1]
   domains are spawned at [create] and joined at [shutdown].  All
   cross-domain hand-offs are ordered by the atomics: the release write
   of [round] publishes the caller's plain writes (job, active count and
   any engine state) to the workers, and each worker's release decrement
   of [remaining] publishes its round's writes back to the caller — these
   are the happens-before edges that make the engine's plain (non-atomic)
   shard state safe to hand from one round's writer to the next round's
   reader. *)

type t = {
  size : int;
  m : Mutex.t;
  start : Condition.t;  (* workers park here between rounds *)
  finished : Condition.t;  (* the caller parks here for the barrier *)
  mutable job : int -> unit;
  mutable active : int;  (* members participating in the current round *)
  round : int Atomic.t;
  remaining : int Atomic.t;  (* active workers yet to finish the round *)
  stop : bool Atomic.t;
  mutable failures : (int * exn) list;
  mutable domains : unit Domain.t list;
}

(* Which team member the current domain is: 0 for any domain that never
   joined a team (in particular the caller), the member index inside a
   round's job otherwise.  The engine uses this to find "its" shard from
   inside an event handler without threading the index through every
   callback.  A worker keeps its index for life, so a round started from
   inside another team's job (a sharded engine run as a [map] task) must
   reset it to 0 for the caller's slice — see [as_member0]. *)
(* [worker] is the body every spawned team member runs ([Domain.spawn]
   gets it partially applied, so rdt_lint cannot see the closure); its
   owned root is the fixed member index [i].  Everything else it touches
   is either atomic or guarded by [t.m]. *)
[@@@lint.domain_scope "worker:i"]

let dls_index = Domain.DLS.new_key (fun () -> 0)
let self_index () = Domain.DLS.get dls_index

let hardware_parallelism () = Domain.recommended_domain_count ()

let no_job (_ : int) = ()

(* cpu_relax iterations on the atomics before falling back to the mutex;
   long enough to catch a back-to-back window, short enough that an idle
   team parks almost immediately *)
let spin_budget = 200

let worker t i () =
  Domain.DLS.set dls_index i;
  (* -1 = stopping; otherwise the number of the round to execute *)
  let rec await_round last_round spins =
    if Atomic.get t.stop then -1
    else begin
      let r = Atomic.get t.round in
      if r <> last_round then r
      else if spins > 0 then begin
        Domain.cpu_relax ();
        await_round last_round (spins - 1)
      end
      else begin
        Mutex.lock t.m;
        while (not (Atomic.get t.stop)) && Atomic.get t.round = last_round do
          Condition.wait t.start t.m
        done;
        Mutex.unlock t.m;
        if Atomic.get t.stop then -1 else Atomic.get t.round
      end
    end
  in
  let rec loop last_round =
    let round = await_round last_round spin_budget in
    if round >= 0 then begin
      if i < t.active then begin
        (try t.job i
         with e ->
           Mutex.lock t.m;
           (t.failures <- (i, e) :: t.failures)
           [@lint.single_writer "guarded by t.m, held on both lines around"];
           Mutex.unlock t.m);
        if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
          (* last one out: the caller may already have parked *)
          Mutex.lock t.m;
          Condition.broadcast t.finished;
          Mutex.unlock t.m
        end
      end;
      loop round
    end
  in
  loop 0

let create ~size =
  if size < 1 then invalid_arg "Barrier_team.create: size must be >= 1";
  let t =
    {
      size;
      m = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = no_job;
      active = 0;
      round = Atomic.make 0;
      remaining = Atomic.make 0;
      stop = Atomic.make false;
      failures = [];
      domains = [];
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

let size t = t.size

(* [f 0] on the calling domain, executing as member 0 of this round
   whatever index the domain carries from an enclosing team; the failure,
   if any, is returned so the caller can finish the barrier first *)
let as_member0 f =
  let prev = Domain.DLS.get dls_index in
  Domain.DLS.set dls_index 0;
  let failure = (try f 0; None with e -> Some e) in
  Domain.DLS.set dls_index prev;
  failure

let run_sub t ~active f =
  if active < 1 then invalid_arg "Barrier_team.run_sub: active must be >= 1";
  let active = min active t.size in
  if active = 1 then Option.iter raise (as_member0 f)
  else begin
    t.job <- f;
    t.active <- active;
    t.failures <- [];
    Atomic.set t.remaining (active - 1);
    (* release write: publishes job/active (and the caller's plain state)
       to every worker that observes the new round number *)
    Atomic.incr t.round;
    Mutex.lock t.m;
    Condition.broadcast t.start;
    Mutex.unlock t.m;
    let caller_failure = as_member0 f in
    let rec await spins =
      if Atomic.get t.remaining > 0 then
        if spins > 0 then begin
          Domain.cpu_relax ();
          await (spins - 1)
        end
        else begin
          Mutex.lock t.m;
          while Atomic.get t.remaining > 0 do
            Condition.wait t.finished t.m
          done;
          Mutex.unlock t.m
        end
    in
    await spin_budget;
    t.job <- no_job;
    (* every member reached the barrier; re-raise the lowest-index failure
       so error reporting does not depend on domain scheduling *)
    match caller_failure with
    | Some e -> raise e
    | None -> (
      match List.sort (fun (a, _) (b, _) -> Int.compare a b) t.failures with
      | (_, e) :: _ -> raise e
      | [] -> ())
  end

let run t f = run_sub t ~active:t.size f

(* Independent tasks on one round: members claim input indices from a
   shared counter (dynamic load balance — a slow item never stalls the
   items behind it), and each result lands in the slot of its index, so
   the output order is the input order at any team size.  The round's
   barrier publishes every slot back to the caller. *)
let map t f xs =
  let inputs = Array.of_list xs in
  let len = Array.length inputs in
  let results = Array.make len None in
  let next = Atomic.make 0 in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < len then begin
      results.(i) <- Some (try Ok (f inputs.(i)) with e -> Error e);
      claim ()
    end
  in
  if len > 0 then run_sub t ~active:len (fun _ -> claim ());
  (* every item finished; the lowest-index failure wins *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
       results)

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.m;
  Condition.broadcast t.start;
  Mutex.unlock t.m;
  let domains = t.domains in
  t.domains <- [];
  List.iter Domain.join domains

(* --- the process-wide shared team -------------------------------------- *)

(* Spawning domains is the expensive part of team setup, so repeated
   short runs (benchmarks, sweeps, tests) borrow one process-wide team
   instead of spawning per run.  The team is grown (shut down and
   respawned larger) when a borrower asks for more members than it has,
   and joined at process exit so the runtime never waits on parked
   domains.  Exclusive borrowing keeps rounds non-reentrant even when
   several engines run concurrently (e.g. as [map] tasks): a second
   concurrent borrower simply gets [None] and falls back to a private
   team. *)

let shared_m = Mutex.create ()
let shared_team : t option ref = ref None
let shared_busy = ref false

let shutdown_shared () =
  Mutex.lock shared_m;
  let team = !shared_team in
  shared_team := None;
  shared_busy := false;
  Mutex.unlock shared_m;
  match team with Some t -> shutdown t | None -> ()

let () = at_exit shutdown_shared

let shared_acquire ~size =
  if size < 1 then invalid_arg "Barrier_team.shared_acquire: size must be >= 1";
  Mutex.lock shared_m;
  let result =
    if !shared_busy then None
    else begin
      let t =
        match !shared_team with
        | Some t when t.size >= size -> t
        | old ->
          (match old with Some t -> shutdown t | None -> ());
          let t = create ~size in
          shared_team := Some t;
          t
      in
      shared_busy := true;
      Some t
    end
  in
  Mutex.unlock shared_m;
  result

let shared_release t =
  Mutex.lock shared_m;
  (match !shared_team with
  | Some cur when cur == t -> shared_busy := false
  | Some _ | None -> ());
  Mutex.unlock shared_m
