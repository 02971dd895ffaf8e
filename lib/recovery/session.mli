(** Centralized recovery sessions (paper, Section 2.4 and Algorithm 3).

    The recovery manager stops the execution of non-faulty processes,
    gathers every process's stable state, computes the recovery line
    [R_F] from stored dependency vectors, and drives each process's
    rollback.  In the simulator the session is atomic (it runs inside one
    engine event), which models the stop-world assumption; the runner is
    responsible for flushing in-transit messages around it.

    Two knowledge modes, as in the paper:
    - [`Global]: every process receives the last-interval vector [LI]
      ([LI.(j) = last_s(j) + 1] in the post-rollback CCP), so rolled-back
      processes run Algorithm 3 against Theorem 1 knowledge, and processes
      that did not roll back release outdated [UC] entries.
    - [`Causal]: no global information is disseminated (decentralized
      recovery-line calculation); rolled-back processes run Algorithm 3
      with their own DV (Theorem 2 knowledge) and the others do nothing. *)

type knowledge = [ `Global | `Causal ]

type report = {
  faulty : int list;
  line : int array;  (** the recovery line (general checkpoint indices) *)
  rolled_back : int list;  (** processes that had to roll back *)
  checkpoints_rolled_back : int;
      (** general checkpoints undone across all processes *)
}

val snapshot_of : Rdt_protocols.Middleware.t -> Rdt_gc.Global_gc.snapshot
(** One process's reply to the manager's state query. *)

type plan = {
  p_line : int array;  (** the recovery line *)
  p_li : int array;  (** LI of the post-rollback CCP *)
  p_last : int array;  (** last stable index per process, as gathered *)
  p_rollback : bool array;  (** [p_line.(i) <= p_last.(i)] *)
  p_undone : int;  (** general checkpoints the plan rolls back *)
}

val plan :
  snapshots:Rdt_gc.Global_gc.snapshot array ->
  last:int array ->
  faulty:int list ->
  plan
(** The pure decision step of a session: compute the recovery line, LI and
    who must roll back from the gathered snapshots.  {!run} applies it to
    in-memory middlewares; the live runtime's coordinator applies the same
    plan over the wire, so both deployments roll back to the identical
    line by construction. *)

val report_of_plan : plan -> faulty:int list -> report

val run :
  middlewares:Rdt_protocols.Middleware.t array ->
  faulty:int list ->
  knowledge:knowledge ->
  release_outdated:(int -> li:int array -> unit) ->
  report
(** Run a recovery session.  [release_outdated pid ~li] is called for
    every process that did not roll back when global knowledge is
    disseminated ({!Process_stack.session} supplies
    {!Process_stack.release_outdated}).  Rollbacks themselves go through
    {!Rdt_protocols.Middleware.rollback}, which fires the collector's
    [on_rollback] hook. *)

val pp_report : Format.formatter -> report -> unit
