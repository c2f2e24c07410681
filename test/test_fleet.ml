(* Tests for the fleet job engine: descriptor round trips, fair-share
   queue ordering under mixed priorities, the bitwise
   preempt-requeue-resume pin for interleaved jobs on one shared exec
   across all three schedulers, failed-job
   isolation, inbox exactly-once semantics, and crash-recovery of the
   serve loop (a crash mid-fleet is simulated by raising out of the
   event hook, which loses all in-memory state exactly like a kill -9;
   the restarted server must adopt the orphans and finish every job
   exactly once). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fleet-test-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Persist.Checkpoint.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Sys.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let job ?(submitter = "anon") ?(priority = 0) ?backend ?nx ?recon ?riemann
    ?tiles ?(scenario = "sod") id target =
  Fleet.Job.make ~submitter ~priority ?backend ?nx ?recon ?riemann ?tiles ~id
    ~scenario target

(* ------------------------------------------------------------------ *)
(* Job descriptors                                                     *)
(* ------------------------------------------------------------------ *)

let test_job_roundtrip () =
  let jobs =
    [ job "plain" (Fleet.Job.Steps 100);
      job ~submitter:"alice" ~priority:7 ~nx:96 ~recon:Euler.Recon.Weno3
        ~riemann:Euler.Riemann.Hllc "fancy" (Fleet.Job.Steps 40);
      job ~scenario:"quadrant" ~nx:32 ~tiles:(2, 2) "tiled"
        (Fleet.Job.Until 0.15) ]
  in
  List.iter
    (fun (j : Fleet.Job.t) ->
      let j' = Fleet.Job.of_kv ~id:j.Fleet.Job.id (Fleet.Job.to_kv j) in
      check_bool ("kv roundtrip " ^ j.Fleet.Job.id) true (j = j'))
    jobs;
  (* File round trip too (atomic write + parse). *)
  with_tmpdir (fun dir ->
      List.iter
        (fun (j : Fleet.Job.t) ->
          let path = Filename.concat dir (j.Fleet.Job.id ^ ".job") in
          Fleet.Job.save ~path j;
          check_bool ("file roundtrip " ^ j.Fleet.Job.id) true
            (Fleet.Job.load ~id:j.Fleet.Job.id ~path = j))
        jobs)

let test_job_rejects () =
  let rejects name kvs =
    check_bool name true
      (try ignore (Fleet.Job.of_kv ~id:"j" kvs); false
       with Fleet.Job.Invalid _ -> true)
  in
  rejects "missing header" [ ("scenario", "sod"); ("steps", "5") ];
  rejects "missing scenario" [ ("fleetjob", "1"); ("steps", "5") ];
  rejects "missing target" [ ("fleetjob", "1"); ("scenario", "sod") ];
  rejects "two targets"
    [ ("fleetjob", "1"); ("scenario", "sod"); ("steps", "5");
      ("t_end", "0.1") ];
  rejects "unknown key"
    [ ("fleetjob", "1"); ("scenario", "sod"); ("steps", "5");
      ("wibble", "1") ];
  rejects "duplicate key"
    [ ("fleetjob", "1"); ("scenario", "sod"); ("scenario", "sod");
      ("steps", "5") ];
  rejects "bad tiles"
    [ ("fleetjob", "1"); ("scenario", "sod"); ("steps", "5");
      ("tiles", "2by2") ];
  rejects "bad enum"
    [ ("fleetjob", "1"); ("scenario", "sod"); ("steps", "5");
      ("recon", "weno99") ];
  check_bool "bad id" true
    (try ignore (job "no/slashes" (Fleet.Job.Steps 1)); false
     with Fleet.Job.Invalid _ -> true);
  (* An unknown scenario parses: it fails at materialisation, as a
     per-job Failed outcome. *)
  check_bool "unknown scenario parses" true
    (try ignore (job ~scenario:"not-a-scenario" "weird" (Fleet.Job.Steps 1));
       true
     with Fleet.Job.Invalid _ -> false)

(* ------------------------------------------------------------------ *)
(* Fair-share queue                                                    *)
(* ------------------------------------------------------------------ *)

let test_queue_fair_share () =
  let q = Fleet.Queue.create () in
  List.iter (Fleet.Queue.submit q)
    [ job ~submitter:"alice" ~priority:0 "a1" (Fleet.Job.Steps 1);
      job ~submitter:"alice" ~priority:9 "a2" (Fleet.Job.Steps 1);
      job ~submitter:"bob" ~priority:0 "b1" (Fleet.Job.Steps 1);
      job ~submitter:"carol" ~priority:5 "c1" (Fleet.Job.Steps 1) ];
  let take () =
    match Fleet.Queue.take q with
    | Some j -> j.Fleet.Job.id
    | None -> "none"
  in
  (* All services zero: submitters alternate alphabetically, and
     within alice the higher priority goes first. *)
  check_string "alice's high-priority job first" "a2" (take ());
  Fleet.Queue.charge q ~submitter:"alice" 100.;
  check_string "bob next (least service, name tie-break)" "b1" (take ());
  Fleet.Queue.charge q ~submitter:"bob" 50.;
  check_string "carol next" "c1" (take ());
  Fleet.Queue.charge q ~submitter:"carol" 200.;
  (* alice (100) has burned less than carol (200); bob is empty. *)
  check_string "alice again" "a1" (take ());
  check_string "drained" "none" (take ());
  check_bool "empty" true (Fleet.Queue.is_empty q)

let test_queue_requeue_rank () =
  let q = Fleet.Queue.create () in
  List.iter (Fleet.Queue.submit q)
    [ job "d1" (Fleet.Job.Steps 1); job "d2" (Fleet.Job.Steps 1);
      job "d3" (Fleet.Job.Steps 1) ];
  (match Fleet.Queue.take q with
   | Some j ->
     check_string "fifo head" "d1" j.Fleet.Job.id;
     (* Preemption: d1 comes back but keeps its original rank, so it
        runs again before d2. *)
     Fleet.Queue.submit q j
   | None -> Alcotest.fail "expected d1");
  (match Fleet.Queue.take q with
   | Some j -> check_string "requeued job keeps its turn" "d1" j.Fleet.Job.id
   | None -> Alcotest.fail "expected d1 again");
  (* Duplicate pending ids are a caller bug. *)
  check_bool "duplicate pending id rejected" true
    (try Fleet.Queue.submit q (job "d2" (Fleet.Job.Steps 1)); false
     with Invalid_argument _ -> true);
  check_int "two left" 2 (Fleet.Queue.pending q);
  Alcotest.(check (list string)) "introspection order" [ "d2"; "d3" ]
    (List.map (fun (j : Fleet.Job.t) -> j.Fleet.Job.id) (Fleet.Queue.jobs q))

(* ------------------------------------------------------------------ *)
(* Scheduler: the bitwise preemption pin                               *)
(* ------------------------------------------------------------------ *)

(* Three jobs of different sizes and backends from two submitters
   share one exec, slice by slice: fair share runs alice's tubes
   (sacprog first, by priority) on both sides of bob's quadrant
   slices.  Every job's final snapshot must be byte-for-byte its
   uninterrupted sequential run's, under every scheduler. *)
let bitwise_preemption make_exec () =
  let jobs =
    [ job ~submitter:"alice" ~nx:48 "ref-tube" (Fleet.Job.Steps 40);
      job ~submitter:"alice" ~priority:1 ~backend:"sacprog" ~nx:32 "sac-tube"
        (Fleet.Job.Steps 40);
      job ~submitter:"bob" ~scenario:"quadrant" ~nx:16 ~tiles:(2, 2) "quad"
        (Fleet.Job.Steps 20) ]
  in
  let expected (j : Fleet.Job.t) =
    let steps =
      match j.Fleet.Job.target with
      | Fleet.Job.Steps n -> n
      | Fleet.Job.Until _ -> assert false
    in
    let inst =
      Engine.Registry.create
        ~exec:(Parallel.Exec.sequential ())
        ~config:(Fleet.Job.config j) j.Fleet.Job.backend
        (Fleet.Job.problem j)
    in
    ignore (Engine.Run.run_steps inst steps);
    Persist.Snapshot.encode (Engine.Backend.snapshot inst)
  in
  with_tmpdir (fun dir ->
      let cfg =
        Fleet.Scheduler.config ~exec:(make_exec ()) ~slice_steps:7
          ~ckpt_root:dir ()
      in
      let q = Fleet.Queue.create () in
      List.iter (Fleet.Queue.submit q) jobs;
      let dispatched = ref [] in
      let on_event = function
        | Fleet.Scheduler.Dispatched (j, _) ->
          dispatched := j.Fleet.Job.id :: !dispatched
        | _ -> ()
      in
      let outcomes = Fleet.Scheduler.drain ~on_event cfg q in
      let dispatched = Array.of_list (List.rev !dispatched) in
      check_int "every job reported" 3 (List.length outcomes);
      List.iter
        (fun (j : Fleet.Job.t) ->
          let id = j.Fleet.Job.id in
          (* Another job's slice runs between this job's first and
             last slice. *)
          let slots =
            List.filter
              (fun i -> dispatched.(i) = id)
              (List.init (Array.length dispatched) Fun.id)
          in
          let first = List.hd slots and last = List.hd (List.rev slots) in
          check_bool (id ^ " interleaves") true
            (List.exists
               (fun i -> dispatched.(i) <> id)
               (List.init (last - first) (fun k -> first + k)));
          let o =
            List.find
              (fun (o : Fleet.Scheduler.outcome) -> o.Fleet.Scheduler.job = j)
              outcomes
          in
          check_bool (id ^ " done") true
            (o.Fleet.Scheduler.status = Fleet.Scheduler.Done);
          check_bool (id ^ " was preempted") true
            (o.Fleet.Scheduler.preemptions >= 2);
          check_int (id ^ " resumed as often as preempted")
            o.Fleet.Scheduler.preemptions o.Fleet.Scheduler.resumes;
          match o.Fleet.Scheduler.final_ckpt with
          | Some path ->
            check_bool (id ^ " final snapshot bitwise-identical") true
              (read_file path = expected j)
          | None -> Alcotest.fail (id ^ ": expected a final checkpoint"))
        jobs)

let test_until_target_bitwise () =
  let t_end = 0.12 in
  let the_job = job ~nx:48 "timed" (Fleet.Job.Until t_end) in
  let expected, exp_steps =
    let inst =
      Engine.Registry.create
        ~exec:(Parallel.Exec.sequential ())
        ~config:(Fleet.Job.config the_job)
        "reference"
        (Fleet.Job.problem the_job)
    in
    ignore (Engine.Run.run_until inst t_end);
    ( Persist.Snapshot.encode (Engine.Backend.snapshot inst),
      Engine.Backend.steps inst )
  in
  with_tmpdir (fun dir ->
      let cfg = Fleet.Scheduler.config ~slice_steps:5 ~ckpt_root:dir () in
      let q = Fleet.Queue.create () in
      Fleet.Queue.submit q the_job;
      match Fleet.Scheduler.drain cfg q with
      | [ o ] ->
        check_bool "done" true (o.Fleet.Scheduler.status = Fleet.Scheduler.Done);
        check_int "same step count" exp_steps o.Fleet.Scheduler.steps;
        check_bool "preempted at least once" true
          (o.Fleet.Scheduler.preemptions >= 1);
        (match o.Fleet.Scheduler.final_ckpt with
         | Some path ->
           check_bool "timed job bitwise-identical" true
             (read_file path = expected)
         | None -> Alcotest.fail "expected a final checkpoint")
      | os -> Alcotest.fail (Printf.sprintf "expected 1 outcome, got %d"
                               (List.length os)))

let test_failed_job_isolated () =
  with_tmpdir (fun dir ->
      let cfg = Fleet.Scheduler.config ~slice_steps:10 ~ckpt_root:dir () in
      let q = Fleet.Queue.create () in
      List.iter (Fleet.Queue.submit q)
        [ job ~nx:32 "ok-1" (Fleet.Job.Steps 12);
          job ~scenario:"not-a-scenario" "doomed" (Fleet.Job.Steps 12);
          job ~nx:32 "ok-2" (Fleet.Job.Steps 12) ];
      let outcomes = Fleet.Scheduler.drain cfg q in
      check_int "all three reported" 3 (List.length outcomes);
      List.iter
        (fun (o : Fleet.Scheduler.outcome) ->
          match o.Fleet.Scheduler.job.Fleet.Job.id with
          | "doomed" ->
            check_bool "bad job failed with a reason" true
              (match o.Fleet.Scheduler.status with
               | Fleet.Scheduler.Failed msg ->
                 String.length msg > 0
               | Fleet.Scheduler.Done -> false)
          | _ ->
            check_bool "good jobs unaffected" true
              (o.Fleet.Scheduler.status = Fleet.Scheduler.Done
               && o.Fleet.Scheduler.steps = 12))
        outcomes)

(* ------------------------------------------------------------------ *)
(* Inbox                                                               *)
(* ------------------------------------------------------------------ *)

let test_inbox_lifecycle () =
  with_tmpdir (fun root ->
      let inbox = Fleet.Inbox.make root in
      let j = job ~nx:32 "life" (Fleet.Job.Steps 4) in
      ignore (Fleet.Inbox.submit inbox j);
      check_bool "duplicate submit rejected" true
        (try ignore (Fleet.Inbox.submit inbox j); false
         with Invalid_argument _ -> true);
      (* Garbage and scratch files are invisible to the protocol. *)
      Out_channel.with_open_bin
        (Filename.concat (Fleet.Inbox.inbox_dir inbox) "half.job.tmp")
        (fun oc -> Out_channel.output_string oc "fleetjob 1\n");
      Out_channel.with_open_bin
        (Filename.concat (Fleet.Inbox.inbox_dir inbox) "junk.job")
        (fun oc -> Out_channel.output_string oc "not a job at all");
      check_int "claimable counts only job files" 2
        (Fleet.Inbox.to_claim inbox);
      let jobs, bad = Fleet.Inbox.claim inbox in
      check_int "one parses" 1 (List.length jobs);
      check_bool "parsed job round-tripped" true (List.hd jobs = j);
      check_int "one rejected" 1 (List.length bad);
      check_string "rejected by id" "junk" (fst (List.hd bad));
      check_int "inbox emptied of job files" 0 (Fleet.Inbox.to_claim inbox);
      Alcotest.(check (list string)) "claimed ids active" [ "junk"; "life" ]
        (Fleet.Inbox.active_ids inbox);
      (* Finalize: result lands, active tombstone goes. *)
      Fleet.Inbox.finalize inbox ~id:"life" [ ("status", "done") ];
      Fleet.Inbox.finalize inbox ~id:"junk"
        [ ("status", "failed"); ("error", "unparsable") ];
      check_bool "active clear" true (Fleet.Inbox.active_ids inbox = []);
      (match Fleet.Inbox.result inbox ~id:"life" with
       | Some kvs -> check_string "status" "done" (List.assoc "status" kvs)
       | None -> Alcotest.fail "expected a result");
      check_int "results listed" 2 (List.length (Fleet.Inbox.results inbox)))

let test_inbox_adopt () =
  with_tmpdir (fun root ->
      let inbox = Fleet.Inbox.make root in
      ignore (Fleet.Inbox.submit inbox (job ~nx:32 "r1" (Fleet.Job.Steps 4)));
      ignore (Fleet.Inbox.submit inbox (job ~nx:32 "r2" (Fleet.Job.Steps 4)));
      let _ = Fleet.Inbox.claim inbox in
      (* Simulate the narrow crash window: r1's result was written but
         its active file not yet unlinked. *)
      Persist.Atomic_write.write_string
        (Filename.concat (Fleet.Inbox.done_dir inbox) "r1.result")
        "status done\n";
      let adopted, bad = Fleet.Inbox.adopt inbox in
      check_bool "no parse failures" true (bad = []);
      Alcotest.(check (list string)) "only the unfinished job re-enqueues"
        [ "r2" ]
        (List.map (fun (j : Fleet.Job.t) -> j.Fleet.Job.id) adopted);
      check_bool "r1 tombstone removed" true
        (Fleet.Inbox.active_ids inbox = [ "r2" ]))

(* ------------------------------------------------------------------ *)
(* Serve: drain end-to-end, crash recovery, exactly-once               *)
(* ------------------------------------------------------------------ *)

let serve_cfg ?on_event inbox root =
  ignore root;
  let sched =
    Fleet.Scheduler.config ~slice_steps:9
      ~ckpt_root:(Fleet.Inbox.ckpt_root inbox) ()
  in
  let cfg =
    Fleet.Serve.config ~drain:true ~poll_s:0.01 ~log:(fun _ -> ()) sched
  in
  fun () -> Fleet.Serve.run ?on_event inbox cfg

let test_serve_drain () =
  with_tmpdir (fun root ->
      let inbox = Fleet.Inbox.make root in
      List.iter
        (fun i ->
          ignore
            (Fleet.Inbox.submit inbox
               (job ~nx:32
                  ~submitter:[| "alice"; "bob" |].(i mod 2)
                  (Printf.sprintf "d%d" i) (Fleet.Job.Steps 24))))
        [ 0; 1; 2; 3; 4 ];
      let t = (serve_cfg inbox root) () in
      check_int "all completed" 5 t.Fleet.Telemetry.completed;
      check_int "none failed" 0 t.Fleet.Telemetry.failed;
      check_bool "preemptions happened" true (t.Fleet.Telemetry.preemptions > 0);
      check_int "five results on disk" 5
        (List.length (Fleet.Inbox.results inbox));
      List.iter
        (fun (_, kvs) ->
          check_string "every result done" "done" (List.assoc "status" kvs))
        (Fleet.Inbox.results inbox))

exception Crash

let test_serve_crash_recovery () =
  with_tmpdir (fun root ->
      let inbox = Fleet.Inbox.make root in
      List.iter
        (fun i ->
          ignore
            (Fleet.Inbox.submit inbox
               (job ~nx:32 (Printf.sprintf "c%d" i) (Fleet.Job.Steps 24))))
        [ 0; 1; 2; 3; 4 ];
      (* First incarnation dies after two completions.  Raising out of
         the event hook unwinds through the scheduler and serve loop,
         losing the in-memory queue — the same state a kill -9 leaves:
         some results written, active files for the rest, checkpoints
         from slices that ran. *)
      let completed = ref 0 in
      (try
         ignore
           ((serve_cfg
               ~on_event:(fun ev ->
                 match ev with
                 | Fleet.Scheduler.Completed _ ->
                   incr completed;
                   if !completed = 2 then raise Crash
                 | _ -> ())
               inbox root)
              ())
       with Crash -> ());
      let pre_crash = Fleet.Inbox.results inbox in
      check_int "two results before the crash" 2 (List.length pre_crash);
      let pre_bytes =
        List.map
          (fun (id, _) ->
            ( id,
              read_file
                (Filename.concat (Fleet.Inbox.done_dir inbox)
                   (id ^ ".result")) ))
          pre_crash
      in
      check_bool "unfinished jobs left active" true
        (List.length (Fleet.Inbox.active_ids inbox) = 3);
      (* Second incarnation: adopt, resume from checkpoints, finish. *)
      let t = (serve_cfg inbox root) () in
      check_int "restart finishes the remaining three" 3
        t.Fleet.Telemetry.completed;
      check_bool "restart resumed from checkpoints" true
        (t.Fleet.Telemetry.resumes > 0);
      check_int "exactly five results total" 5
        (List.length (Fleet.Inbox.results inbox));
      check_bool "active set clear" true (Fleet.Inbox.active_ids inbox = []);
      List.iter
        (fun (_, kvs) ->
          check_string "every job done exactly once" "done"
            (List.assoc "status" kvs))
        (Fleet.Inbox.results inbox);
      (* Pre-crash results were never rewritten. *)
      List.iter
        (fun (id, bytes) ->
          check_bool ("pre-crash result untouched: " ^ id) true
            (read_file
               (Filename.concat (Fleet.Inbox.done_dir inbox) (id ^ ".result"))
             = bytes))
        pre_bytes)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-12)) "p50" 5. (Fleet.Telemetry.percentile 50. xs);
  Alcotest.(check (float 1e-12)) "p99" 10. (Fleet.Telemetry.percentile 99. xs);
  Alcotest.(check (float 1e-12)) "p100" 10.
    (Fleet.Telemetry.percentile 100. xs);
  Alcotest.(check (float 1e-12)) "singleton" 42.
    (Fleet.Telemetry.percentile 99. [| 42. |]);
  Alcotest.(check (float 1e-12)) "empty" 0.
    (Fleet.Telemetry.percentile 50. [||]);
  (* Unsorted input is fine; the caller's array is not mutated. *)
  let ys = [| 3.; 1.; 2. |] in
  Alcotest.(check (float 1e-12)) "unsorted" 2.
    (Fleet.Telemetry.percentile 50. ys);
  check_bool "input untouched" true (ys = [| 3.; 1.; 2. |])

let () =
  Alcotest.run "fleet"
    [ ( "job",
        [ Alcotest.test_case "kv/file roundtrip" `Quick test_job_roundtrip;
          Alcotest.test_case "malformed descriptors rejected" `Quick
            test_job_rejects ] );
      ( "queue",
        [ Alcotest.test_case "fair share under mixed priorities" `Quick
            test_queue_fair_share;
          Alcotest.test_case "requeue keeps submission rank" `Quick
            test_queue_requeue_rank ] );
      ( "scheduler",
        [ Alcotest.test_case "preempt/resume bitwise (seq)" `Quick
            (bitwise_preemption Parallel.Exec.sequential);
          Alcotest.test_case "preempt/resume bitwise (spmd)" `Quick
            (bitwise_preemption (fun () -> Parallel.Exec.spmd ~lanes:2));
          Alcotest.test_case "preempt/resume bitwise (forkjoin)" `Quick
            (bitwise_preemption (fun () -> Parallel.Exec.fork_join ~lanes:2));
          Alcotest.test_case "timed target bitwise" `Quick
            test_until_target_bitwise;
          Alcotest.test_case "failed job isolated" `Quick
            test_failed_job_isolated ] );
      ( "inbox",
        [ Alcotest.test_case "lifecycle and exactly-once" `Quick
            test_inbox_lifecycle;
          Alcotest.test_case "adopt reconciles the crash window" `Quick
            test_inbox_adopt ] );
      ( "serve",
        [ Alcotest.test_case "drain end-to-end" `Quick test_serve_drain;
          Alcotest.test_case "crash mid-fleet, restart, exactly once" `Quick
            test_serve_crash_recovery ] );
      ( "telemetry",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick
            test_percentiles ] ) ]
