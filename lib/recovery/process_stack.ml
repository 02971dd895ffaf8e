module Middleware = Rdt_protocols.Middleware
module Stable_store = Rdt_storage.Stable_store
module Rdt_lgc = Rdt_gc.Rdt_lgc

type t = { middleware : Middleware.t; collector : Rdt_lgc.t option }

let with_backend backend store =
  Option.iter (Stable_store.set_backend store) backend;
  store

(* [make] is [Rdt_lgc.create] or [Rdt_lgc.restore], matching how the
   middleware was built *)
let assemble ~lgc ~make mw =
  let collector =
    if not lgc then None
    else
      Some
        (make ~me:(Middleware.me mw) ~store:(Middleware.store mw)
           ~dv:(Middleware.dv mw) ~n:(Middleware.n mw))
  in
  Option.iter (fun c -> Middleware.set_hooks mw (Rdt_lgc.hooks c)) collector;
  { middleware = mw; collector }

let create ~n ~me ~protocol ~trace ?ckpt_bytes ?backend ~lgc () =
  let store = with_backend backend (Stable_store.create ~me) in
  assemble ~lgc ~make:Rdt_lgc.create
    (Middleware.create ~n ~me ~protocol ~trace ?ckpt_bytes ~store ())

let restore ~n ~me ~protocol ~trace ?ckpt_bytes ?backend ~lgc ~entries () =
  let store = with_backend backend (Stable_store.restore ~me ~entries) in
  assemble ~lgc ~make:Rdt_lgc.restore
    (Middleware.restore ~n ~me ~protocol ~trace ?ckpt_bytes ~store ())

let middleware t = t.middleware
let collector t = t.collector
let store t = Middleware.store t.middleware

let release_outdated t ~li =
  Option.iter (fun c -> Rdt_lgc.release_outdated c ~li) t.collector

let session procs ~faulty ~knowledge =
  Session.run
    ~middlewares:(Array.map middleware procs)
    ~faulty ~knowledge
    ~release_outdated:(fun pid ~li -> release_outdated procs.(pid) ~li)
