(* The live-runtime fuzzing campaign: random scenarios under random
   nemesis schedules against a whole cluster (simulator-backed or real
   TCP processes), black-box checked, failures shrunk and saved as
   (seed, scenario, nemesis) reproducers.

   Output discipline (Sim backend): every logged line is a pure
   function of the arguments — no timestamps, no absolute paths, no
   wall-clock-dependent verdicts — so a campaign's output is
   byte-reproducible (pinned by a test). *)

module Prng = Rdt_sim.Prng
module Nemesis = Rdt_transport.Nemesis
module Scenario = Rdt_verify.Scenario
module Oracles = Rdt_verify.Oracles
module Harness = Rdt_verify.Harness
module Shrink = Rdt_verify.Shrink

type backend = Sim | Live of Cluster.backend

type failure = {
  run : int;
  sub_seed : int;
  scenario : Scenario.t;
  nemesis : Nemesis.config;
  violation : Oracles.violation;
  shrunk : Scenario.t option;
}

type report = {
  runs : int;
  failures : failure list;
  corpus_replayed : int;
  corpus_failed : int;
}

let passed r = List.is_empty r.failures && r.corpus_failed = 0

(* The live cluster always runs real durable stores (respawn recovers
   from disk) and has no hook to crash a store mid-mutation, so
   generated scenarios are forced onto that configuration. *)
let sanitize sc =
  Scenario.normalize { sc with Scenario.durable = true; store_fault = None }

let run_one ~backend ~root ?timeout ~nemesis sc =
  let result =
    match backend with
    | Sim -> Sim_cluster.run ~scenario:sc ~root ~nemesis ()
    | Live be ->
      Cluster.run ~scenario:sc ~root ~backend:be ?timeout ~nemesis ()
  in
  match result with
  | Error msg -> Error msg
  | Ok record ->
    let scratch = root ^ ".replay" in
    let c = Checker.check ~record ~root ~scratch_dir:scratch () in
    Ok c.Checker.violations

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let verdict_of = function
  | Error msg -> Printf.sprintf "RUN-FAILED(%s)" (first_line msg)
  | Ok [] -> "ok"
  | Ok (v :: _) ->
    Printf.sprintf "VIOLATION(%s@%d)" v.Oracles.oracle v.Oracles.op

let violation_of = function
  | Error msg -> { Oracles.oracle = "live-run"; op = -1; detail = first_line msg }
  | Ok (v :: _) -> v
  | Ok [] -> invalid_arg "violation_of: passing run"

(* --- shrinking ---------------------------------------------------------- *)

let sim_shrink_budget = 300
let live_shrink_budget = 40

let still_fails ~backend ~run_root ?timeout ~nemesis ~oracle sc =
  match run_one ~backend ~root:run_root ?timeout ~nemesis sc with
  | Error _ -> String.equal oracle "live-run"
  | Ok vs ->
    List.exists
      (fun (v : Oracles.violation) -> String.equal v.oracle oracle)
      vs

let shrink_failure ~backend ~run_root ?timeout ~nemesis ~oracle sc =
  let check b cand = still_fails ~backend:b ~run_root ?timeout ~nemesis ~oracle cand in
  match backend with
  | Sim -> Shrink.minimize_with ~budget:sim_shrink_budget ~check:(check Sim) sc
  | Live _ ->
    (* every shrink candidate is a full cluster run: prefer the
       in-process simulator arm when it reproduces the failure, and
       only pay for live candidate runs — on a tight budget — when the
       failure is live-only *)
    if check Sim sc then
      Shrink.minimize_with ~budget:sim_shrink_budget ~check:(check Sim) sc
    else
      Shrink.minimize_with ~budget:live_shrink_budget ~check:(check backend)
        sc

(* --- corpus ------------------------------------------------------------- *)

(* a committed scenario's fault schedule sits in a sibling [.nms] file;
   [x.min.scn] falls back to [x.nms], and no sibling means a
   transparent nemesis *)
let nemesis_for dir scn_file =
  let base = Filename.chop_suffix scn_file ".scn" in
  let cand = Filename.concat dir (base ^ ".nms") in
  let cand =
    if Sys.file_exists cand || not (Filename.check_suffix base ".min") then
      cand
    else Filename.concat dir (Filename.chop_suffix base ".min" ^ ".nms")
  in
  if not (Sys.file_exists cand) then Ok Nemesis.default
  else begin
    let ic = open_in cand in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    Nemesis.of_string line
  end

let replay_corpus ~backend ~run_root ?timeout ~log dir =
  if not (Sys.file_exists dir) then (0, 0)
  else begin
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".scn")
      |> List.sort compare
    in
    List.fold_left
      (fun (seen, failed) file ->
        match Scenario.load (Filename.concat dir file) with
        (* a corpus directory may also hold reproducers for the
           store-fault fuzz harness; the live cluster has no hook to
           crash a store mid-mutation, so those cannot be replayed here *)
        | Ok sc
          when Option.is_some sc.Scenario.store_fault
               || not sc.Scenario.durable ->
          log (Printf.sprintf "corpus %s: skipped (not live-representable)" file);
          (seen, failed)
        | loaded ->
          let outcome =
            match loaded with
            | Error e -> Error (Printf.sprintf "unreadable scenario (%s)" e)
            | Ok sc -> begin
              match nemesis_for dir file with
              | Error e -> Error (Printf.sprintf "unreadable nemesis (%s)" e)
              | Ok nemesis ->
                run_one ~backend ~root:run_root ?timeout ~nemesis sc
            end
          in
          log (Printf.sprintf "corpus %s: %s" file (verdict_of outcome));
          ( seen + 1,
            match outcome with Ok [] -> failed | _ -> failed + 1 ))
      (0, 0) files
  end

let save_failure ~log ~dir ~sub_seed ~nemesis sc shrunk =
  Rdt_store.Log_store.mkdir_p dir;
  let base = Printf.sprintf "seed-%x" sub_seed in
  Scenario.save sc (Filename.concat dir (base ^ ".scn"));
  let oc = open_out (Filename.concat dir (base ^ ".nms")) in
  output_string oc (Nemesis.to_string nemesis ^ "\n");
  close_out oc;
  log (Printf.sprintf "saved %s.scn and %s.nms" base base);
  match shrunk with
  | None -> ()
  | Some min_sc ->
    Scenario.save min_sc (Filename.concat dir (base ^ ".min.scn"));
    log (Printf.sprintf "saved %s.min.scn" base)

(* --- the campaign ------------------------------------------------------- *)

let with_mutation enabled f =
  if not enabled then f ()
  else begin
    (* in-process nodes (sim / fork children) read the global; exec'd
       node processes inherit the environment variable *)
    Node.set_test_dup_deliver true;
    Unix.putenv "RDTGC_TEST_DUP_DELIVER" "1";
    Fun.protect
      ~finally:(fun () ->
        Node.set_test_dup_deliver false;
        Unix.putenv "RDTGC_TEST_DUP_DELIVER" "")
      f
  end

let campaign ?(backend = Sim) ?(shrink = true) ?corpus ?(log = fun _ -> ())
    ?timeout ?(mutate_deliver = false) ~seed ~runs ~max_procs ~root () =
  Harness.rm_rf root;
  Rdt_store.Log_store.mkdir_p root;
  with_mutation mutate_deliver @@ fun () ->
  let run_root = Filename.concat root "run" in
  let corpus_replayed, corpus_failed =
    match corpus with
    | Some dir when not mutate_deliver ->
      replay_corpus ~backend ~run_root ?timeout ~log dir
    | _ -> (0, 0)
  in
  let prng = Prng.create ~seed in
  let failures = ref [] in
  for run = 0 to runs - 1 do
    let sub_seed = Int64.to_int (Prng.bits64 prng) land max_int in
    let sc = sanitize (Scenario.generate ~seed:sub_seed ~max_procs ()) in
    let nemesis = Nemesis.gen ~seed:sub_seed ~n:sc.Scenario.n in
    let outcome = run_one ~backend ~root:run_root ?timeout ~nemesis sc in
    log
      (Printf.sprintf "run %04d %s nemesis[%s]: %s" run
         (Format.asprintf "%a" Scenario.pp sc)
         (Format.asprintf "%a" Nemesis.pp nemesis)
         (verdict_of outcome));
    match outcome with
    | Ok [] -> ()
    | _ ->
      let violation = violation_of outcome in
      let shrunk =
        if shrink then begin
          let min_sc =
            shrink_failure ~backend ~run_root ?timeout ~nemesis
              ~oracle:violation.Oracles.oracle sc
          in
          log
            (Printf.sprintf "shrunk 0x%x: %d ops, %d procs (from %d ops, %d \
                             procs)"
               sub_seed (Scenario.op_count min_sc) min_sc.Scenario.n
               (Scenario.op_count sc) sc.Scenario.n);
          Some min_sc
        end
        else None
      in
      (match corpus with
      | Some dir -> save_failure ~log ~dir ~sub_seed ~nemesis sc shrunk
      | None -> ());
      failures := { run; sub_seed; scenario = sc; nemesis; violation; shrunk } :: !failures
  done;
  let report =
    { runs; failures = List.rev !failures; corpus_replayed; corpus_failed }
  in
  log
    (Printf.sprintf "live campaign: %d runs, %d failures%s" runs
       (List.length report.failures)
       (if corpus_replayed > 0 then
          Printf.sprintf ", corpus %d/%d ok" (corpus_replayed - corpus_failed)
            corpus_replayed
        else ""));
  report
