module A = Rdt_storage.Dv_archive

let test_record_and_find () =
  let a = A.create ~me:2 in
  Alcotest.(check int) "owner" 2 (A.me a);
  Alcotest.(check int) "empty" (-1) (A.last_index a);
  A.record a ~index:0 ~dv:[| 0; 0 |];
  A.record a ~index:1 ~dv:[| 1; 3 |];
  Alcotest.(check int) "count" 2 (A.count a);
  (match A.find a ~index:1 with
  | Some dv -> Alcotest.(check (array int)) "stored" [| 1; 3 |] dv
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "absent" true (A.find a ~index:2 = None);
  Alcotest.(check bool) "negative" true (A.find a ~index:(-1) = None)

let test_record_copies () =
  let a = A.create ~me:0 in
  let dv = [| 7 |] in
  A.record a ~index:0 ~dv;
  dv.(0) <- 9;
  match A.find a ~index:0 with
  | Some stored -> Alcotest.(check int) "isolated" 7 stored.(0)
  | None -> Alcotest.fail "missing"

let test_record_out_of_order () =
  let a = A.create ~me:0 in
  A.record a ~index:0 ~dv:[| 0 |];
  Alcotest.(check bool) "gap rejected" true
    (try
       A.record a ~index:2 ~dv:[| 2 |];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate rejected" true
    (try
       A.record a ~index:0 ~dv:[| 0 |];
       false
     with Invalid_argument _ -> true)

let test_truncate () =
  let a = A.create ~me:0 in
  for i = 0 to 4 do
    A.record a ~index:i ~dv:[| i |]
  done;
  A.truncate_above a ~index:2;
  Alcotest.(check int) "count" 3 (A.count a);
  Alcotest.(check int) "last" 2 (A.last_index a);
  (* recording continues from the rewound point *)
  A.record a ~index:3 ~dv:[| 33 |];
  match A.find a ~index:3 with
  | Some dv -> Alcotest.(check int) "overwritten" 33 dv.(0)
  | None -> Alcotest.fail "missing"

let test_truncate_noop () =
  let a = A.create ~me:0 in
  A.record a ~index:0 ~dv:[| 0 |];
  A.truncate_above a ~index:5;
  Alcotest.(check int) "unchanged" 1 (A.count a)

let test_empty_archive () =
  let a = A.create ~me:1 in
  Alcotest.(check int) "count" 0 (A.count a);
  Alcotest.(check int) "last index" (-1) (A.last_index a);
  Alcotest.(check bool) "find 0" true (A.find a ~index:0 = None);
  Alcotest.(check bool) "find negative" true (A.find a ~index:(-1) = None);
  (* truncating an empty archive is a no-op, not an error *)
  A.truncate_above a ~index:5;
  A.truncate_above a ~index:(-1);
  Alcotest.(check int) "still empty" 0 (A.count a);
  (* the first record must be s^0 — there is no gap to leave *)
  Alcotest.(check bool) "first record must be index 0" true
    (try
       A.record a ~index:1 ~dv:[| 0; 1 |];
       false
     with Invalid_argument _ -> true);
  A.record a ~index:0 ~dv:[| 0; 0 |];
  Alcotest.(check int) "recovers after rejection" 1 (A.count a)

let test_duplicate_after_truncate () =
  (* a duplicate insert is rejected even right after a truncation put the
     cursor back onto an existing index *)
  let a = A.create ~me:0 in
  for i = 0 to 3 do
    A.record a ~index:i ~dv:[| i |]
  done;
  A.truncate_above a ~index:1;
  Alcotest.(check bool) "duplicate of surviving index rejected" true
    (try
       A.record a ~index:1 ~dv:[| 99 |];
       false
     with Invalid_argument _ -> true);
  (* the failed insert must not have clobbered the archived vector *)
  match A.find a ~index:1 with
  | Some dv -> Alcotest.(check int) "vector intact" 1 dv.(0)
  | None -> Alcotest.fail "missing"

let test_archive_after_rollback () =
  (* drive a real middleware rollback: the archive rewinds with the store
     and the re-taken interval overwrites the undone history *)
  let trace = Rdt_ccp.Trace.create ~n:2 in
  let mw =
    Rdt_protocols.Middleware.create ~n:2 ~me:0
      ~protocol:Rdt_protocols.Protocol.fdas ~trace
      ~store:(Rdt_storage.Stable_store.create ~me:0) ()
  in
  for i = 1 to 4 do
    Rdt_protocols.Middleware.basic_checkpoint mw ~now:(float_of_int i)
  done;
  let a = Rdt_protocols.Middleware.archive mw in
  Alcotest.(check int) "before rollback" 5 (A.count a);
  Rdt_protocols.Middleware.rollback mw ~to_index:2 ~li:None;
  Alcotest.(check int) "archive rewound" 3 (A.count a);
  Alcotest.(check bool) "undone vectors forgotten" true
    (A.find a ~index:3 = None && A.find a ~index:4 = None);
  (* the next checkpoint re-records index 3 with the post-rollback DV *)
  Rdt_protocols.Middleware.basic_checkpoint mw ~now:9.0;
  (match A.find a ~index:3 with
  | Some dv -> Alcotest.(check int) "re-taken interval archived" 3 dv.(0)
  | None -> Alcotest.fail "re-taken checkpoint not archived");
  Alcotest.(check int) "last index" 3 (A.last_index a)

let test_archive_tracks_store () =
  (* the middleware archive always covers 0 .. last taken, even after
     collection removed checkpoints from the store *)
  let module Script = Rdt_scenarios.Script in
  let s =
    Script.create ~n:2 ~protocol:Rdt_protocols.Protocol.fdas ~with_lgc:true ()
  in
  for _ = 1 to 5 do
    Script.checkpoint s 0
  done;
  let mw = Script.middleware s 0 in
  let archive = Rdt_protocols.Middleware.archive mw in
  Alcotest.(check int) "archive complete" 6 (A.count archive);
  Alcotest.(check bool) "store collected" true
    (Rdt_storage.Stable_store.count (Rdt_protocols.Middleware.store mw) < 6)

let suite =
  [
    Alcotest.test_case "record and find" `Quick test_record_and_find;
    Alcotest.test_case "record copies" `Quick test_record_copies;
    Alcotest.test_case "out-of-order rejected" `Quick test_record_out_of_order;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "truncate noop" `Quick test_truncate_noop;
    Alcotest.test_case "empty archive" `Quick test_empty_archive;
    Alcotest.test_case "duplicate after truncate" `Quick
      test_duplicate_after_truncate;
    Alcotest.test_case "archive after rollback" `Quick
      test_archive_after_rollback;
    Alcotest.test_case "archive outlives collection" `Quick
      test_archive_tracks_store;
  ]
