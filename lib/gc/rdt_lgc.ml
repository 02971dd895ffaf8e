module Dependency_vector = Rdt_causality.Dependency_vector
module Stable_store = Rdt_storage.Stable_store
module Middleware = Rdt_protocols.Middleware

(* Checkpoint control block (paper, Algorithm 1): index of the stable
   checkpoint it represents and the number of UC entries referencing it. *)
type ccb = { ind : int; mutable rc : int }

type t = {
  n : int;
  me : int;
  store : Stable_store.t;
  dv : Dependency_vector.t;
  uc : ccb option array;
  mutable test_overcollect : bool;
}

let release t j =
  match t.uc.(j) with
  | None -> ()
  | Some ccb ->
    ccb.rc <- ccb.rc - 1;
    if ccb.rc = 0 then Stable_store.eliminate t.store ~index:ccb.ind;
    t.uc.(j) <- None

let link t j =
  (* UC.(j) <- UC.(me); UC.(j).rc++ — UC.(me) always references the last
     stable checkpoint, so it is never Null. *)
  match t.uc.(t.me) with
  | None -> assert false
  | Some ccb ->
    ccb.rc <- ccb.rc + 1;
    t.uc.(j) <- Some ccb

let new_ccb t ~index = t.uc.(t.me) <- Some { ind = index; rc = 1 }

let create ~me ~store ~dv ~n =
  if Stable_store.count store <> 1 || not (Stable_store.mem store ~index:0)
  then
    invalid_arg "Rdt_lgc.create: attach to a fresh middleware holding only s^0";
  let t = { n; me; store; dv; uc = Array.make n None; test_overcollect = false } in
  (* state after initialize() plus the checkpoint step for s^0 *)
  new_ccb t ~index:0;
  t

let restore ~me ~store ~dv ~n =
  if Stable_store.count store = 0 then
    invalid_arg "Rdt_lgc.restore: restored store is empty";
  (* a crash destroyed UC; Algorithm 3's rollback step rebuilds every slot
     from retained checkpoints + the restored DV + LI, so a respawned
     collector starts all-Null and must see a rollback before any other
     hook fires (the recovery session guarantees it: the faulty process
     always rolls back) *)
  { n; me; store; dv; uc = Array.make n None; test_overcollect = false }

let on_new_dependency t j =
  release t j;
  link t j

let on_checkpoint_stored t index =
  release t t.me;
  new_ccb t ~index;
  if t.test_overcollect then
    (* deliberately wrong: also drop every cross-process retention duty,
       eliminating checkpoints other processes may still need *)
    for f = 0 to t.n - 1 do
      if f <> t.me then release t f
    done

let set_test_overcollect t flag = t.test_overcollect <- flag

let on_rollback t ~li =
  if Array.length li <> t.n then invalid_arg "Rdt_lgc.on_rollback: arity";
  let entries = Array.of_list (Stable_store.retained t.store) in
  (* Algorithm 3 line 7: fresh CCBs for every stored checkpoint *)
  let ccbs =
    Array.map (fun (e : Stable_store.entry) -> { ind = e.index; rc = 0 }) entries
  in
  let ccb_of_index index =
    let found = ref None in
    Array.iter (fun c -> if c.ind = index then found := Some c) ccbs;
    match !found with Some c -> c | None -> assert false
  in
  (* borrowed: [retained_for] only reads the live vector during the call *)
  let live_dv = Dependency_vector.view t.dv in
  for f = 0 to t.n - 1 do
    (* Algorithm 3 line 9 *)
    match Global_gc.retained_for ~entries ~live_dv ~f ~li_f:li.(f) with
    | Some index ->
      let ccb = ccb_of_index index in
      ccb.rc <- ccb.rc + 1;
      t.uc.(f) <- Some ccb
    | None -> t.uc.(f) <- None
  done;
  (* lines 15-17: eliminate every checkpoint left unreferenced *)
  Array.iter
    (fun ccb ->
      if ccb.rc = 0 then Stable_store.eliminate t.store ~index:ccb.ind)
    ccbs

let release_outdated t ~li =
  if Array.length li <> t.n then
    invalid_arg "Rdt_lgc.release_outdated: arity";
  for f = 0 to t.n - 1 do
    if f <> t.me && Dependency_vector.get t.dv f < li.(f) then release t f
  done

let hooks t =
  {
    Middleware.on_new_dependency = on_new_dependency t;
    on_checkpoint_stored = on_checkpoint_stored t;
    on_rollback = (fun ~li -> on_rollback t ~li);
  }

let uc_view t = Array.map (Option.map (fun ccb -> ccb.ind)) t.uc

let retained_because_of t f = Option.map (fun ccb -> ccb.ind) t.uc.(f)

let pp ppf t =
  let entry ppf = function
    | None -> Format.pp_print_string ppf "*"
    | Some ccb -> Format.fprintf ppf "%d" ccb.ind
  in
  Format.fprintf ppf "UC=(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       entry)
    (Array.to_list t.uc)
