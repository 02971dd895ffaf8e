(* Binary min-heap over (time, u, v, seq).  Cancellation is lazy: a
   cancelled entry stays in the heap with its [live] flag cleared and is
   dropped when popped, which keeps all operations O(log n) amortized.

   The (u, v) pair is a caller-supplied canonical key used by the sharded
   engine to make execution order at equal timestamps a pure function of
   the simulation, independent of insertion interleaving; the plain
   {!add}/{!add_unit} entry points set u = v = 0, so their ties fall
   through to [seq] and keep the historical insertion-order semantics.

   Entries are pooled: when an entry leaves the heap (fired or found
   cancelled) it goes onto a free stack and the next [add] recycles it
   instead of allocating, so a steady-state schedule/fire loop performs no
   minor-heap allocation at all ([add_unit]; [add] itself allocates only
   the handle box).  Handles are generation-stamped with the entry's
   sequence number, so a handle that outlives its entry — fired, recycled
   and reused for a later event — can never cancel the wrong event. *)

(* Scheduling and firing are the simulator's inner loop; rdt_lint holds
   the named functions to alloc/* so the pool actually delivers its
   zero-allocation steady state ([add] and [pop] box their results and
   are deliberately outside the hot set). *)
[@@@lint.zero_alloc_hot
  "before" "swap" "sift_up" "sift_down" "grow" "recycle" "add_entry"
  "add_unit" "add_keyed_unit" "cancel" "cancel_handle"]

type 'a entry = {
  mutable time : float;
  mutable u : int;
  mutable v : int;
  mutable seq : int;
  mutable value : 'a;
  mutable live : bool;
}

(* the int ref is the owning queue's live counter, embedded so a handle
   can be cancelled without naming its queue (the sharded engine routes
   actions to per-shard queues the caller cannot see) *)
type handle = H : 'a entry * int * int ref -> handle

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  live_count : int ref;
  (* free stack of recycled entries; a pooled entry keeps its last [value]
     until reuse, so the pool retains at most [pool_size] stale values *)
  mutable free : 'a entry array;
  mutable free_size : int;
  (* key of the most recently popped entry, so hot loops can read it
     without the queue boxing a wider result *)
  mutable last_u : int;
  mutable last_v : int;
}

let create () =
  {
    data = [||];
    size = 0;
    next_seq = 0;
    live_count = ref 0;
    free = [||];
    free_size = 0;
    last_u = 0;
    last_v = 0;
  }

let before a b =
  a.time < b.time
  || (a.time = b.time
      && (a.u < b.u
          || (a.u = b.u && (a.v < b.v || (a.v = b.v && a.seq < b.seq)))))

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && before t.data.(l) t.data.(i) then l else i in
  let smallest =
    if r < t.size && before t.data.(r) t.data.(smallest) then r else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let grow t entry =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let new_capacity = max 16 (2 * capacity) in
    let data =
      (Array.make new_capacity entry
       [@lint.allow "alloc" "amortized doubling; absent from steady state"])
    in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let recycle t entry =
  entry.live <- false;
  if t.free_size = Array.length t.free then begin
    let free =
      (Array.make (max 16 (2 * t.free_size)) entry
       [@lint.allow "alloc" "amortized doubling; absent from steady state"])
    in
    Array.blit t.free 0 free 0 t.free_size;
    t.free <- free
  end;
  t.free.(t.free_size) <- entry;
  t.free_size <- t.free_size + 1

let add_entry t ~time ~u ~v value =
  let entry =
    if t.free_size > 0 then begin
      t.free_size <- t.free_size - 1;
      let entry = t.free.(t.free_size) in
      entry.time <- time;
      entry.u <- u;
      entry.v <- v;
      entry.seq <- t.next_seq;
      entry.value <- value;
      entry.live <- true;
      entry
    end
    else
      ({ time; u; v; seq = t.next_seq; value; live = true }
       [@lint.allow "alloc" "pool miss; steady-state adds reuse a pooled entry"])
  in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  incr t.live_count;
  sift_up t (t.size - 1);
  entry

let add t ~time value =
  let entry = add_entry t ~time ~u:0 ~v:0 value in
  H (entry, entry.seq, t.live_count)

let add_unit t ~time value = ignore (add_entry t ~time ~u:0 ~v:0 value)

let add_keyed t ~time ~u ~v value =
  let entry = add_entry t ~time ~u ~v value in
  H (entry, entry.seq, t.live_count)

let add_keyed_unit t ~time ~u ~v value =
  ignore (add_entry t ~time ~u ~v value)

let cancel_handle (H (entry, seq, live_count)) =
  (* the seq stamp rejects handles whose entry was recycled for a newer
     event; a merely-popped (not yet reused) entry is caught by [live] *)
  if entry.live && entry.seq = seq then begin
    entry.live <- false;
    decr live_count
  end

let cancel _t h = cancel_handle h

let pop_entry t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

let rec pop t =
  match pop_entry t with
  | None -> None
  | Some entry ->
    if entry.live then begin
      decr t.live_count;
      t.last_u <- entry.u;
      t.last_v <- entry.v;
      let result = Some (entry.time, entry.value) in
      recycle t entry;
      result
    end
    else begin
      recycle t entry;
      pop t
    end

let last_u t = t.last_u
let last_v t = t.last_v

let rec peek_time t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    if top.live then Some top.time
    else begin
      (match pop_entry t with Some e -> recycle t e | None -> ());
      peek_time t
    end
  end

(* cold path of [next_time]: the head is a lazily-cancelled entry *)
let rec next_time_skip_dead t =
  if t.size = 0 then infinity
  else begin
    let top = t.data.(0) in
    if top.live then top.time
    else begin
      (match pop_entry t with Some e -> recycle t e | None -> ());
      next_time_skip_dead t
    end
  end

(* [peek_time] boxes its result in an option; the sharded engine's window
   loop reads queue heads once per shard per window, so it gets an
   allocation-free variant: a small, cross-module-inlinable head probe
   whose float result stays unboxed at the call site *)
let[@inline] next_time t =
  if t.size = 0 then infinity
  else begin
    let top = t.data.(0) in
    if top.live then top.time else next_time_skip_dead t
  end

let is_empty t = !(t.live_count) = 0

let length t = !(t.live_count)

let pool_size t = t.free_size
