module Prng = Rdt_sim.Prng

type failure = {
  run : int;
  scenario : Scenario.t;
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

(* Output discipline: every logged line is a pure function of the
   arguments (seeds, scenarios, verdicts) — no timestamps, no absolute
   paths — so a campaign's output is byte-reproducible. *)

let verdict_of (r : Harness.result) =
  match r.violations with
  | [] -> "ok"
  | v :: _ -> Printf.sprintf "VIOLATION(%s@%d)" v.Oracles.oracle v.op

let replay_corpus ~mutate_lgc ~log ?scratch_dir dir =
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
        | Error e ->
          log (Printf.sprintf "corpus %s: unreadable (%s)" file e);
          (seen + 1, failed + 1)
        | Ok sc ->
          let r = Harness.run ~mutate_lgc ?scratch_dir sc in
          log (Printf.sprintf "corpus %s: %s" file (verdict_of r));
          ( seen + 1,
            if List.is_empty r.Harness.violations then failed else failed + 1 ))
      (0, 0) files
  end

let save_failure ~log ~dir ~sub_seed sc shrunk =
  Rdt_store.Log_store.mkdir_p dir;
  let base = Printf.sprintf "seed-%x" sub_seed in
  Scenario.save sc (Filename.concat dir (base ^ ".scn"));
  log (Printf.sprintf "saved %s.scn" base);
  match shrunk with
  | None -> ()
  | Some min_sc ->
    Scenario.save min_sc (Filename.concat dir (base ^ ".min.scn"));
    let oc = open_out (Filename.concat dir (base ^ ".ml")) in
    output_string oc (Scenario.to_script_ml min_sc);
    close_out oc;
    log (Printf.sprintf "saved %s.min.scn and %s.ml" base base)

let campaign ?(mutate_lgc = false) ?(shrink = true) ?corpus
    ?(log = fun _ -> ()) ?scratch_dir ?(shards = 1) ~seed ~runs ~max_procs ()
    =
  let corpus_replayed, corpus_failed =
    match corpus with
    | Some dir -> replay_corpus ~mutate_lgc ~log ?scratch_dir dir
    | None -> (0, 0)
  in
  let root = Prng.create ~seed in
  let failures = ref [] in
  for run = 0 to runs - 1 do
    let sub_seed = Int64.to_int (Prng.bits64 root) land max_int in
    let sc = Scenario.generate ~shards ~seed:sub_seed ~max_procs () in
    let r = Harness.run ~mutate_lgc ?scratch_dir sc in
    log (Printf.sprintf "run %04d %s: %s" run (Fmt.str "%a" Scenario.pp sc)
           (verdict_of r));
    match r.Harness.violations with
    | [] -> ()
    | violation :: _ ->
      let shrunk =
        if shrink then begin
          let min_sc =
            Shrink.minimize ~mutate_lgc ?scratch_dir
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
      | Some dir -> save_failure ~log ~dir ~sub_seed sc shrunk
      | None -> ());
      failures := { run; scenario = sc; violation; shrunk } :: !failures
  done;
  let report =
    { runs; failures = List.rev !failures; corpus_replayed; corpus_failed }
  in
  log
    (Printf.sprintf "campaign: %d runs, %d failures%s" runs
       (List.length report.failures)
       (if corpus_replayed > 0 then
          Printf.sprintf ", corpus %d/%d ok" (corpus_replayed - corpus_failed)
            corpus_replayed
        else ""));
  report
