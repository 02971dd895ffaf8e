(* End-of-run checks of the paper's guarantees on a finished run.  Each
   returns the violations it found as messages; an empty list is a pass. *)

module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Log_store = Rdt_store.Log_store
module Global_gc = Rdt_gc.Global_gc
module Session = Rdt_recovery.Session
module Dependency_vector = Rdt_causality.Dependency_vector

(* Theorem 5 (optimality): nothing a process could collect from its own
   causal knowledge is still retained. *)
let theorem5 middlewares =
  Array.to_list middlewares
  |> List.filter_map (fun mw ->
         let entries =
           Array.of_list (Stable_store.retained (Middleware.store mw))
         in
         let live_dv = Dependency_vector.to_array (Middleware.dv mw) in
         match Global_gc.theorem2_collectable ~entries ~live_dv with
         | [] -> None
         | l ->
           Some
             (Printf.sprintf "theorem5: p%d retains collectable %s"
                (Middleware.me mw)
                (String.concat "," (List.map string_of_int l))))

(* The retention bound: at most n checkpoints, n+1 while one is stored. *)
let retention_bound ~n (peak_retained : int array) =
  Array.to_list peak_retained
  |> List.mapi (fun pid peak -> (pid, peak))
  |> List.filter_map (fun (pid, peak) ->
         if peak <= n + 1 then None
         else Some (Printf.sprintf "bound: p%d peaked at %d > n+1" pid peak))

(* Theorem 4 / Lemma 1 (safety): for the failure of any single process,
   every recovery-line component is a retained checkpoint or the
   process's volatile state. *)
let recovery_lines middlewares =
  let n = Array.length middlewares in
  let stores = Array.map Middleware.store middlewares in
  let snapshots = Array.map Session.snapshot_of middlewares in
  let last = Array.map Stable_store.last_index stores in
  List.concat_map
    (fun f ->
      let plan = Session.plan ~snapshots ~last ~faulty:[ f ] in
      List.filter_map
        (fun j ->
          let c = plan.Session.p_line.(j) in
          if c = last.(j) + 1 || Stable_store.mem stores.(j) ~index:c then None
          else
            Some
              (Printf.sprintf
                 "lemma1: failure of p%d needs collected s^%d of p%d" f c j))
        (List.init n Fun.id))
    (List.init n Fun.id)

(* Durable runs: reopening each process's closed Log_store recovers
   exactly the checkpoints the in-memory store retains. *)
let reopen ~dir ~config middlewares =
  Array.to_list middlewares
  |> List.filter_map (fun mw ->
         let pid = Middleware.me mw in
         let ls =
           Log_store.create ~config ~pid
             ~dir:(Filename.concat dir (Printf.sprintf "p%d" pid))
             ()
         in
         let recovered =
           List.map
             (fun (e : Stable_store.entry) -> e.index)
             (Log_store.recovery ls).Log_store.recovered
         in
         Log_store.close ls;
         let retained = Stable_store.retained_indices (Middleware.store mw) in
         if recovered = retained then None
         else
           Some
             (Printf.sprintf "reopen: p%d recovered {%s}, retained {%s}" pid
                (String.concat "," (List.map string_of_int recovered))
                (String.concat "," (List.map string_of_int retained))))

(* Every check except [reopen], which needs the stores closed first. *)
let in_memory ~n ~peak_retained middlewares =
  theorem5 middlewares
  @ retention_bound ~n peak_retained
  @ recovery_lines middlewares
