(* Steady-state allocation discipline of the sharded executors
   (DESIGN.md §13).  The multi-shard engine once allocated ~130k words
   per whole run — tuple keys, closure window jobs, per-record stamp
   tuples — which is what made shards slower than the sequential
   executor.  These tests pin the repaired steady state: beyond the
   event queue's boxed pop result (an option around a (float, value)
   tuple, a few words per event, deliberately outside the zero-alloc
   set), dispatch allocates nothing — neither inline windows per event
   nor the windowed executor per window.

   The bounds are deliberately loose (16 words/event, 64 words/window)
   so timer jitter or a future boxing tweak cannot flake them, while the
   storm class they guard against — hundreds of words per event — stays
   two orders of magnitude away. *)

module Engine = Rdt_sim.Engine
module Network = Rdt_sim.Network

let words_per_event = 16.0
let words_per_window = 64.0

(* a sharded engine with no-op receivers and [msgs] pre-queued
   deliveries, so the measured drain executes events without the
   handlers themselves sending (sends allocate their Deliver cell, which
   would drown the dispatch signal being measured) *)
let preloaded ~shards ~autotune ~msgs =
  let n = 8 in
  let e = Engine.create ~n ~seed:3 ~net:Network.default ~shards ~autotune () in
  for p = 0 to n - 1 do
    Engine.set_receiver e p (fun ~src:_ () -> ())
  done;
  for i = 1 to msgs do
    Engine.send e ~src:(i mod n) ~dst:((i + 3) mod n) ()
  done;
  e

let test_inline_per_event () =
  (* [step] runs one conservative round inline on the calling domain on
     every host; autotune on gives the asymmetric per-shard boundaries.
     Preloaded deliveries span a whole delay band, so each round executes
     many events and the bound pins per-event dispatch cost *)
  let e = preloaded ~shards:4 ~autotune:true ~msgs:4000 in
  (* warm the queue pools on the first thousand pops *)
  while (Engine.stats e).Engine.events < 1000 && Engine.step e do
    ()
  done;
  let ev0 = (Engine.stats e).Engine.events in
  let w0 = Gc.minor_words () in
  while Engine.step e do
    ()
  done;
  let dw = Gc.minor_words () -. w0 in
  let ev = (Engine.stats e).Engine.events - ev0 in
  Alcotest.(check bool) "drained a real workload" true (ev > 1000);
  let per_event = dw /. float_of_int ev in
  if per_event > words_per_event then
    Alcotest.failf "inline windows: %.1f words/event (bound %.0f)" per_event
      words_per_event

let test_windowed_per_window () =
  (* autotune off = windowed execution regardless of the host; [step]
     runs one conservative round per call on the calling domain, so the
     window machinery (boundary autotuning, dispatch, barrier close) is
     measured without domain-local GC counters getting involved.
     Deliveries all land within one delay band of their send, so to get
     many windows the workload is pinned no-op actions staggered across
     virtual time — a couple of events per conservative round. *)
  let e = preloaded ~shards:4 ~autotune:false ~msgs:0 in
  let nop () = () in
  for i = 1 to 4000 do
    ignore (Engine.schedule e ~pin:(i mod 8) ~at:(float_of_int i *. 0.3) nop)
  done;
  for _ = 1 to 50 do
    ignore (Engine.step e)
  done;
  let ev0 = (Engine.stats e).Engine.events in
  let w0 = Gc.minor_words () in
  let windows = ref 0 in
  while Engine.step e do
    incr windows
  done;
  let dw = Gc.minor_words () -. w0 in
  let ev = (Engine.stats e).Engine.events - ev0 in
  Alcotest.(check bool) "executed real windows" true (!windows > 100);
  let overhead = dw -. (words_per_event *. float_of_int ev) in
  let per_window = overhead /. float_of_int !windows in
  if per_window > words_per_window then
    Alcotest.failf
      "windowed executor: %.1f words/window beyond the per-event budget \
       (bound %.0f)"
      per_window words_per_window

let suite =
  [
    Alcotest.test_case "inline windows allocate nothing" `Quick
      test_inline_per_event;
    Alcotest.test_case "windowed executor allocates nothing per window" `Quick
      test_windowed_per_window;
  ]
