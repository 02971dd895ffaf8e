module Middleware = Rdt_protocols.Middleware
module Rdt_lgc = Rdt_gc.Rdt_lgc
module Process_stack = Rdt_recovery.Process_stack
module Stable_store = Rdt_storage.Stable_store
module Dependency_vector = Rdt_causality.Dependency_vector
module Trace = Rdt_ccp.Trace
module Ccp = Rdt_ccp.Ccp

type msg = {
  payload : Middleware.message;
  dst : int;
  mutable delivered : bool;
  mutable dead : bool;  (* lost, or discarded by a crash while in flight *)
}

type t = {
  n : int;
  trace : Trace.t;
  procs : Process_stack.t array;
  knowledge : Rdt_recovery.Session.knowledge;
  mutable in_flight : msg list;
  mutable crashes : int;
  mutable clock : float;
}

let create ?(knowledge = `Global) ?backend_of ~n ~protocol ~with_lgc () =
  let trace = Trace.create ~n in
  let procs =
    Array.init n (fun me ->
        let backend = Option.map (fun f -> f ~me) backend_of in
        Process_stack.create ~n ~me ~protocol ~trace ?backend ~lgc:with_lgc ())
  in
  {
    n;
    trace;
    procs;
    knowledge;
    in_flight = [];
    crashes = 0;
    clock = 0.0;
  }

let n t = t.n
let middleware t pid = Process_stack.middleware t.procs.(pid)

let tick t =
  t.clock <- t.clock +. 1.0;
  t.clock

let checkpoint t pid =
  Middleware.basic_checkpoint (middleware t pid) ~now:(tick t)

let send t ~src ~dst =
  let payload = Middleware.prepare_send (middleware t src) ~dst ~now:(tick t) in
  let m = { payload; dst; delivered = false; dead = false } in
  t.in_flight <- m :: t.in_flight;
  m

let forget t msg = t.in_flight <- List.filter (fun m -> m != msg) t.in_flight

let deliver t msg =
  if msg.delivered then invalid_arg "Script.deliver: already delivered";
  if msg.dead then
    invalid_arg "Script.deliver: message was lost (dropped or crash-flushed)";
  msg.delivered <- true;
  forget t msg;
  Middleware.receive (middleware t msg.dst) msg.payload ~now:(tick t)

let transfer t ~src ~dst = deliver t (send t ~src ~dst)

let drop t msg =
  if msg.delivered then invalid_arg "Script.drop: already delivered";
  if msg.dead then invalid_arg "Script.drop: already lost";
  msg.dead <- true;
  forget t msg

let alive t msg = (not msg.delivered) && (not msg.dead) && List.memq msg t.in_flight

let crash t ~faulty =
  if List.is_empty faulty then invalid_arg "Script.crash: empty faulty set";
  List.iter
    (fun pid ->
      if pid < 0 || pid >= t.n then invalid_arg "Script.crash: bad pid")
    faulty;
  ignore (tick t);
  (* the stop-world session discards every in-transit message (the CCP
     excludes lost and in-transit messages) *)
  List.iter (fun m -> m.dead <- true) t.in_flight;
  t.in_flight <- [];
  t.crashes <- t.crashes + 1;
  Process_stack.session t.procs ~faulty ~knowledge:t.knowledge

let crash_count t = t.crashes
let knowledge t = t.knowledge
let collector t pid = Process_stack.collector t.procs.(pid)
let store t pid = Process_stack.store t.procs.(pid)
let dv t pid = Dependency_vector.to_array (Middleware.dv (middleware t pid))

let uc t pid =
  match collector t pid with
  | Some lgc -> Rdt_lgc.uc_view lgc
  | None -> invalid_arg "Script.uc: no collector attached"

let retained t pid = Stable_store.retained_indices (store t pid)
let trace t = t.trace
let ccp t = Ccp.of_trace t.trace
let forced_taken t pid = Middleware.forced_count (middleware t pid)
