module Dependency_vector = Rdt_causality.Dependency_vector
module Stable_store = Rdt_storage.Stable_store
module Trace = Rdt_ccp.Trace

(* [receive] runs once per delivered message and must not allocate (its
   DV merge is in place and the hook is passed by field projection, not a
   closure); rdt_lint enforces this.  Checkpoint/rollback paths allocate
   freely — they are store-boundary events, not the hot loop. *)
[@@@lint.zero_alloc_hot "receive" "evolve_state"]

type hooks = {
  on_new_dependency : int -> unit;
  on_checkpoint_stored : int -> unit;
  on_rollback : li:int array -> unit;
}

let no_hooks =
  {
    on_new_dependency = (fun _ -> ());
    on_checkpoint_stored = (fun _ -> ());
    on_rollback = (fun ~li:_ -> ());
  }

type message = { msg_id : int; src : int; control : Control.t }

type kind = Basic | Forced

type t = {
  n : int;
  me : int;
  proto : Protocol.instance;
  proto_name : string;
  trace : Trace.t;
  store : Stable_store.t;
  archive : Rdt_storage.Dv_archive.t;
  dv : Dependency_vector.t;
  ckpt_bytes : int;
  mutable hooks : hooks;
  mutable app_state : int;
  mutable basic_count : int;
  mutable forced_count : int;
}

(* Synthetic application state: a deterministic digest of the process's
   communication history, so rollback restoration is observable. *)
let evolve_state state tag =
  let h = state lxor (tag * 0x9E3779B1) in
  let h = h lxor (h lsr 16) in
  h * 0x85EBCA6B land max_int

let take_checkpoint t ~kind ~now =
  let index = Dependency_vector.get t.dv t.me in
  (* one snapshot copy at the store boundary (DESIGN.md §10): the stored
     entry owns it, the archive shares the same immutable array *)
  let entry =
    Stable_store.store_from t.store ~index
      ~dv:(Dependency_vector.view t.dv)
      ~now ~size_bytes:t.ckpt_bytes ~payload:t.app_state ()
  in
  Rdt_storage.Dv_archive.record_shared t.archive ~index
    ~dv:entry.Stable_store.dv;
  Trace.record_checkpoint t.trace ~pid:t.me ~index;
  t.proto.Protocol.note_checkpoint ();
  t.hooks.on_checkpoint_stored index;
  Dependency_vector.increment t.dv t.me;
  match kind with
  | Basic -> t.basic_count <- t.basic_count + 1
  | Forced -> t.forced_count <- t.forced_count + 1

let create ~n ~me ~protocol ~trace ?(ckpt_bytes = 1) ~store () =
  if Stable_store.count store <> 0 then
    invalid_arg "Middleware.create: supplied store must be empty";
  let t =
    {
      n;
      me;
      proto = protocol.Protocol.make ~n ~me;
      proto_name = protocol.Protocol.id;
      trace;
      store;
      archive = Rdt_storage.Dv_archive.create ~me;
      dv = Dependency_vector.create ~n;
      ckpt_bytes;
      hooks = no_hooks;
      app_state = me + 1;
      basic_count = 0;
      forced_count = 0;
    }
  in
  (* every process starts its execution by storing s^0 *)
  take_checkpoint t ~kind:Basic ~now:0.0;
  t.basic_count <- 0;
  t

let restore ~n ~me ~protocol ~trace ?(ckpt_bytes = 1) ~store () =
  let entries = Stable_store.retained store in
  let last =
    match List.rev entries with
    | [] -> invalid_arg "Middleware.restore: restored store is empty"
    | e :: _ -> e
  in
  let dv = Dependency_vector.create ~n in
  (* Algorithm 3 lines 4-6 applied to the last surviving checkpoint: the
     volatile state a crash destroyed is exactly what a rollback discards,
     so a respawned process is a process rolled back to its last stable
     checkpoint.  The recovery session that follows the respawn never
     reads this provisional DV (the recovery line of a faulty process is
     computed from stored vectors only). *)
  Dependency_vector.blit_into
    ~src:(Dependency_vector.of_view last.Stable_store.dv)
    ~dst:dv;
  Dependency_vector.increment dv me;
  {
    n;
    me;
    proto = protocol.Protocol.make ~n ~me;
    proto_name = protocol.Protocol.id;
    trace;
    store;
    archive =
      Rdt_storage.Dv_archive.restore ~me
        ~entries:
          (List.map
             (fun (e : Stable_store.entry) -> (e.index, e.dv))
             entries);
    dv;
    ckpt_bytes;
    hooks = no_hooks;
    app_state = last.Stable_store.payload;
    basic_count = 0;
    forced_count = 0;
  }

let set_hooks t hooks = t.hooks <- hooks

let me t = t.me
let n t = t.n
let dv t = t.dv
let store t = t.store
let archive t = t.archive
let protocol_name t = t.proto_name
let current_interval t = Dependency_vector.get t.dv t.me
let last_checkpoint_index t = Dependency_vector.get t.dv t.me - 1

let basic_checkpoint t ~now =
  take_checkpoint t ~kind:Basic ~now

let prepare_send t ~dst ~now =
  t.proto.Protocol.note_send ();
  (* [Control.make] performs the single message-boundary copy itself *)
  let control =
    Control.make
      ~dv:(Dependency_vector.view t.dv)
      ~index:(t.proto.Protocol.control_index ())
  in
  let msg_id = Trace.fresh_msg_id t.trace ~pid:t.me in
  Trace.record_send t.trace ~pid:t.me ~msg_id ~dst;
  t.app_state <- evolve_state t.app_state ((2 * msg_id) + 1);
  if t.proto.Protocol.force_after_send then take_checkpoint t ~kind:Forced ~now;
  { msg_id; src = t.me; control }

let receive t msg ~now =
  (* borrowed view: [need_forced] only reads it during the call *)
  let local_dv = Dependency_vector.view t.dv in
  if t.proto.Protocol.need_forced ~local_dv ~incoming:msg.control then
    take_checkpoint t ~kind:Forced ~now;
  Trace.record_receive t.trace ~pid:t.me ~msg_id:msg.msg_id ~src:msg.src;
  t.app_state <- evolve_state t.app_state (2 * msg.msg_id);
  Dependency_vector.merge_from_message_iter t.dv msg.control.dv
    ~f:t.hooks.on_new_dependency;
  t.proto.Protocol.note_receive ~incoming:msg.control

let rollback t ~to_index ~li =
  (match Stable_store.find t.store ~index:to_index with
  | None ->
    invalid_arg
      (Printf.sprintf "Middleware.rollback: p%d holds no s^%d" t.me to_index)
  | Some entry ->
    ignore (Stable_store.truncate_above t.store ~index:to_index);
    Rdt_storage.Dv_archive.truncate_above t.archive ~index:to_index;
    (* Algorithm 3 lines 4-6: recreate DV from the restored checkpoint *)
    Dependency_vector.blit_into
      ~src:(Dependency_vector.of_view entry.Stable_store.dv)
      ~dst:t.dv;
    Dependency_vector.increment t.dv t.me;
    (* the volatile application state is replaced by the checkpointed one *)
    t.app_state <- entry.Stable_store.payload);
  Trace.truncate_to_checkpoint t.trace ~pid:t.me ~index:to_index;
  (* a fresh interval starts: reset the protocol's interval state (for
     index-based protocols this only advances the monotone index, which is
     safe) *)
  t.proto.Protocol.note_checkpoint ();
  let li =
    match li with Some li -> li | None -> Dependency_vector.to_array t.dv
  in
  t.hooks.on_rollback ~li

let restart_after_crash t ~now:_ =
  let last = Stable_store.last_index t.store in
  rollback t ~to_index:last ~li:None

let app_state t = t.app_state

let basic_count t = t.basic_count
let forced_count t = t.forced_count
let checkpoint_count t = t.basic_count + t.forced_count + 1
