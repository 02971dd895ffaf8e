(* One benchmark iteration per process, so peak heap is this run's own.
   perfbench/run.py drives the iterations and aggregates them.

     main.exe once  --workload W --seed S --store-root DIR
     main.exe trace --workload W --seed S --store-root DIR
     main.exe host

   Each mode prints one JSON object as its last line. *)

open Rdt_perfbench
module Runner = Rdt_core.Runner
module Sim_config = Rdt_core.Sim_config
module Engine = Rdt_sim.Engine
module Tr = Traced_run

let now () = float_of_int (Tracer.now_ns ()) /. 1e9

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_list f l = "[" ^ String.concat "," (List.map f l) ^ "]"

let json_object fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

(* A fresh store directory per Runner: durable runs refuse reused ones. *)
let fresh_dir =
  let k = ref 0 in
  fun root ->
    incr k;
    Filename.concat root (Printf.sprintf "r%d" !k)

let minor_words () =
  (* a minor collection is stop-the-world: it brings every domain's
     sampled allocation counters up to date *)
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let digest (s : Runner.summary) = Digest.to_hex (Digest.string (Marshal.to_string s []))

(* End-of-run checks on a finished Runner; closes its stores. *)
let check runner =
  let cfg = Runner.config runner in
  let middlewares = Array.init cfg.Sim_config.n (Runner.middleware runner) in
  let s = Runner.summary runner in
  let in_memory =
    Checks.in_memory ~n:cfg.n ~peak_retained:s.peak_retained middlewares
  in
  Runner.close_stores runner;
  let durable =
    match cfg.Sim_config.store with
    | Sim_config.Durable { dir; config } -> Checks.reopen ~dir ~config middlewares
    | Sim_config.Memory -> []
  in
  in_memory @ durable

type measured = {
  runner : Runner.t;
  setup_s : float;
  run_s : float;  (** Runner.run plus the final store sync *)
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
}

let measure w ~seed ~store_root =
  let cfg = Workloads.config w ~seed ~store_dir:(fresh_dir store_root) in
  let t0 = now () in
  let runner = Runner.create cfg in
  let t1 = now () in
  let w0 = minor_words () in
  let st0 = Gc.quick_stat () in
  let t2 = now () in
  Runner.run runner;
  Runner.sync_stores runner;
  let t3 = now () in
  let w1 = minor_words () in
  let st1 = Gc.quick_stat () in
  {
    runner;
    setup_s = t1 -. t0;
    run_s = t3 -. t2;
    alloc_words = w1 -. w0;
    minor_collections = st1.Gc.minor_collections - st0.Gc.minor_collections;
    major_collections = st1.Gc.major_collections - st0.Gc.major_collections;
  }

let events runner = (Engine.stats (Runner.engine runner)).Engine.events

(* Set-ups timed per child besides the measured one; setup_s is the
   median of all of them. *)
let warm_setups = 10

let once w ~seed ~store_root =
  (* warm set-ups first, for a steadier setup_s; their garbage is gone
     before the measured run, so they do not raise its peak heap.  Their
     stores stay open until the process exits: closing would fsync each
     one and load the disk the measured run then uses. *)
  let warm =
    List.init warm_setups (fun _ ->
        let cfg = Workloads.config w ~seed ~store_dir:(fresh_dir store_root) in
        let t0 = now () in
        ignore (Sys.opaque_identity (Runner.create cfg));
        now () -. t0)
  in
  Gc.compact ();
  let r = measure w ~seed ~store_root in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let s = Runner.summary r.runner in
  let ev = events r.runner in
  let failures = check r.runner in
  print_endline
    (json_object
       [
         ("events", string_of_int ev);
         ("run_s", json_float r.run_s);
         ("setup_s", json_list json_float (r.setup_s :: warm));
         ("alloc_words", json_float r.alloc_words);
         ("peak_heap_mb", json_float peak_heap_mb);
         ( "retained_per_proc",
           json_float (s.mean_total_retained /. float_of_int s.n) );
         ("failures", json_list json_string failures);
         ("digest", json_string (digest s));
       ])

(* What [trace] keeps of the untraced run: plain values only, so its
   runner is unreachable, and collected, during the traced run. *)
type baseline = {
  expected : Runner.summary;
  failures : string list;
  total_s : float;
  minor_collections : int;
  major_collections : int;
}

let[@inline never] baseline w ~seed ~store_root =
  let r = measure w ~seed ~store_root in
  let expected = Runner.summary r.runner in
  {
    expected;
    failures = check r.runner;
    total_s = r.setup_s +. r.run_s;
    minor_collections = r.minor_collections;
    major_collections = r.major_collections;
  }

let trace w ~seed ~store_root =
  (* the untraced run first, on a fresh heap *)
  let base = baseline w ~seed ~store_root in
  Gc.compact ();
  let cfg = Workloads.config w ~seed ~store_dir:(fresh_dir store_root) in
  let t0 = now () in
  let t = Tr.create cfg in
  let t1 = now () in
  Tr.run t;
  let t2 = now () in
  Tr.sync_stores t;
  let t3 = now () in
  let walls =
    { Report.setup_s = t1 -. t0; run_s = t2 -. t1; sync_s = t3 -. t2; total_s = t3 -. t0 }
  in
  let got = Tr.summary t in
  let mismatched = Tr.summary_diff base.expected got in
  let table = Report.attribution t walls in
  let _, gap, attribution_ok = Report.attribution_ok walls table in
  let contained = Report.containment_failures t.Tr.probe.Tr.tr walls in
  let metrics =
    Report.layer_metrics t walls got ~table ~untraced_total_s:base.total_s
      ~minor_collections:base.minor_collections
      ~major_collections:base.major_collections
  in
  Tr.close_stores t;
  Report.pp_table Format.std_formatter ~workload:w.Workloads.name
    ~shards:(Tracer.shards t.Tr.probe.Tr.tr) walls table;
  let failures =
    base.failures
    @ List.map (fun f -> "summary mismatch: " ^ f) mismatched
    @ contained
    @
    if attribution_ok then []
    else [ Printf.sprintf "attribution: layer self times miss the wall by %.1f%%" (100.0 *. gap) ]
  in
  print_endline
    (json_object
       [
         ( "metrics",
           json_object
             (List.map
                (fun (m : Report.metric) ->
                  (m.name, json_object [ ("value", json_float m.value); ("unit", json_string m.unit_) ]))
                metrics) );
         ("failures", json_list json_string failures);
         ("digest", json_string (digest base.expected));
       ])

let host () =
  print_endline
    (json_object
       [
         ("hardware_parallelism", string_of_int (Rdt_parallel.Barrier_team.hardware_parallelism ()));
         ("ocaml_version", json_string Sys.ocaml_version);
         ("word_size", string_of_int Sys.word_size);
       ])

let usage () =
  prerr_endline
    "usage: main.exe (once|trace) --workload W --seed S --store-root DIR | host";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | [ "host" ] -> host ()
  | (("once" | "trace") as mode) :: rest -> (
    let o = opts [] rest in
    let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
    let w =
      match Workloads.find (get "workload") with Some w -> w | None -> usage ()
    in
    let seed = match int_of_string_opt (get "seed") with Some s -> s | None -> usage () in
    let store_root = get "store-root" in
    if mode = "once" then once w ~seed ~store_root else trace w ~seed ~store_root)
  | _ -> usage ()
