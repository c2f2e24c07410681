(* Tests for the engine layer: registry lookup, the shared driver's
   step accounting and instrumentation, cross-backend validation on
   the Sod tube, and the scheduler's per-region timing buckets. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))
let check_string = Alcotest.(check string)

let sod () = Euler.Setup.sod ~nx:64 ()

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_names () =
  Alcotest.(check (list string))
    "registered backends"
    [ "reference"; "array"; "fortran"; "fortran-outer"; "sacprog" ]
    (Engine.Registry.names ())

let test_registry_find () =
  List.iter
    (fun key ->
      check_bool key true (Option.is_some (Engine.Registry.find key)))
    (Engine.Registry.names ());
  check_bool "unknown is None" true
    (Option.is_none (Engine.Registry.find "cuda"));
  Alcotest.check_raises "find_exn reports the known names"
    (Invalid_argument
       "Engine.Registry: unknown backend \"cuda\" (have: reference, \
        array, fortran, fortran-outer, sacprog)")
    (fun () -> ignore (Engine.Registry.find_exn "cuda"))

let test_registry_rejects_bad_spec () =
  (* The mini-SaC program is 1D only. *)
  let prob2d = Euler.Setup.quadrant ~nx:8 () in
  check_bool "sacprog rejects 2D" true
    (try
       ignore (Engine.Registry.create "sacprog" prob2d);
       false
     with Invalid_argument _ -> true);
  (* The whole-array twin implements only the benchmark scheme. *)
  check_bool "array rejects WENO" true
    (try
       ignore
         (Engine.Registry.create ~config:Euler.Solver.default_config
            "array" (sod ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shared driver                                                       *)
(* ------------------------------------------------------------------ *)

let test_run_steps_accounting () =
  let inst = Engine.Registry.create "reference" (sod ()) in
  let m = Engine.Run.run_steps inst 5 in
  check_int "steps" 5 m.Engine.Metrics.steps;
  check_bool "time advanced" true (m.Engine.Metrics.sim_time > 0.);
  (* The fused reference 1D step is one dispatch per RK stage; the dt
     eigenvalue rides in the final sweep, so only the first step pays
     a standalone GetDT region: 4 + 4 * 3 = 16 regions over 5 steps. *)
  check_int "regions" 16 m.Engine.Metrics.regions;
  check_int "regions matches exec" 16
    (Parallel.Exec.regions (Engine.Backend.exec inst));
  check_float "regions/step" 3.2 (Engine.Metrics.regions_per_step m)

let test_run_until_hits_target () =
  let inst = Engine.Registry.create "reference" (sod ()) in
  let m = Engine.Run.run_until inst 0.05 in
  check_float "exact target" 0.05 m.Engine.Metrics.sim_time;
  (* A second call is a no-op: the target is already reached. *)
  let m2 = Engine.Run.run_until inst 0.05 in
  check_int "no extra steps" m.Engine.Metrics.steps m2.Engine.Metrics.steps

let test_driver_equals_native_loop () =
  (* The engine's clamped loop must reproduce Solver.run_until
     exactly. *)
  let prob = sod () in
  let inst = Engine.Registry.create "reference" prob in
  ignore (Engine.Run.run_until inst 0.1);
  let solver =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:prob.Euler.Setup.bcs
      (Euler.State.copy prob.Euler.Setup.state)
  in
  Euler.Solver.run_until solver 0.1;
  check_float "identical fields" 0.
    (Euler.State.max_abs_diff
       (Engine.Backend.state inst)
       solver.Euler.Solver.state)

let test_timing_buckets () =
  let inst = Engine.Registry.create "reference" (sod ()) in
  let m = Engine.Run.run_steps inst 4 in
  let bucket r =
    match Engine.Metrics.bucket m r with
    | Some b -> b
    | None ->
      Alcotest.failf "missing bucket %s" (Parallel.Exec.region_name r)
  in
  let rhs = bucket Parallel.Exec.Rhs in
  let bc = bucket Parallel.Exec.Bc in
  let reduce = bucket Parallel.Exec.Reduce in
  let rk = bucket Parallel.Exec.Rk_combine in
  check_int "3 rhs phases/step" 12 rhs.Parallel.Exec.count;
  check_int "3 bc fills/step" 12 bc.Parallel.Exec.count;
  (* Fused: the dt reduction is in-sweep after the first step, so only
     one standalone reduce appears over the whole run. *)
  check_int "reduce on first step only" 1 reduce.Parallel.Exec.count;
  check_int "3 rk combines/step" 12 rk.Parallel.Exec.count;
  List.iter
    (fun (b : Parallel.Exec.bucket) ->
      check_bool "time accumulated" true (b.total_ns >= 0.);
      check_bool "max <= total" true (b.max_ns <= b.total_ns +. 1e-6))
    [ rhs; bc; reduce; rk ]

(* ------------------------------------------------------------------ *)
(* Cross-backend validation                                            *)
(* ------------------------------------------------------------------ *)

let test_cross_check_native_backends () =
  List.iter
    (fun other ->
      let r = Engine.Validate.cross_check "reference" other (sod ()) in
      if not (Engine.Validate.within r 1e-8) then
        Alcotest.failf "reference vs %s diverged:\n%s" other
          (Engine.Validate.to_string r))
    [ "array"; "fortran"; "fortran-outer" ]

let test_cross_check_sacprog () =
  let r = Engine.Validate.cross_check "reference" "sacprog" (sod ()) in
  if not (Engine.Validate.within r 1e-6) then
    Alcotest.failf "reference vs sacprog diverged:\n%s"
      (Engine.Validate.to_string r)

let test_cross_check_report_shape () =
  let r = Engine.Validate.cross_check ~steps:3 "reference" "array" (sod ()) in
  check_int "steps recorded" 3 r.Engine.Validate.steps;
  Alcotest.(check (list string))
    "one divergence per conserved variable"
    [ "rho"; "rho*u"; "rho*v"; "E" ]
    (List.map
       (fun (d : Engine.Validate.divergence) -> d.Engine.Validate.var)
       r.Engine.Validate.divergences);
  List.iter
    (fun (d : Engine.Validate.divergence) ->
      check_bool "l1 <= max_abs" true
        (d.Engine.Validate.l1 <= d.Engine.Validate.max_abs +. 1e-30))
    r.Engine.Validate.divergences

(* ------------------------------------------------------------------ *)
(* Backend notes                                                       *)
(* ------------------------------------------------------------------ *)

let test_array_notes_with_loops () =
  let inst = Engine.Registry.create "array" (sod ()) in
  let m = Engine.Run.run_steps inst 2 in
  match List.assoc_opt "with-loops" m.Engine.Metrics.notes with
  | None -> Alcotest.fail "array backend should report with-loops"
  | Some n -> check_bool "counted some with-loops" true (n > 0.)

(* ------------------------------------------------------------------ *)
(* Cost model against measured instrumentation                         *)
(* ------------------------------------------------------------------ *)

let test_cost_model_tracks_measured_regions () =
  (* The cost model's regions_per_step input comes from Exec
     instrumentation; pin the whole coupling so neither side can
     silently drift.  Measured counts for the 2D benchmark scheme
     (RK3): fused = one dispatch per stage plus the first step's
     standalone GetDT ((1 + 3*4)/4 = 3.25 over 4 steps); unfused = 1
     reduce + 3 stages x (x-sweep + y-sweep + combine) = 10. *)
  let measure fused =
    let prob = Euler.Setup.two_channel ~cells_per_h:6 () in
    let s =
      Euler.Solver.create
        ~config:{ Euler.Solver.benchmark_config with Euler.Solver.fused }
        ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
    in
    Euler.Solver.run_steps s 4;
    Euler.Solver.regions_per_step s
  in
  let fused = measure true and unfused = measure false in
  check_float "measured fused regions/step" 3.25 fused;
  check_float "measured unfused regions/step" 10. unfused;
  check_bool "fused under the 4 regions/step ceiling" true (fused <= 4.);
  (* Feed both measurements to the model: the predicted per-step gap
     must be exactly the region-count gap times the per-region
     overhead — the folding win is pure synchronisation savings. *)
  let open Parallel.Cost_model in
  let w regions_per_step =
    { serial_s = 1e-4; parallel_s = 1e-2; regions_per_step }
  in
  List.iter
    (fun (name, sched, cores) ->
      let gap =
        predict_step default sched (w unfused) ~cores
        -. predict_step default sched (w fused) ~cores
      in
      let expected =
        (unfused -. fused) *. overhead_per_region default sched ~cores
      in
      Alcotest.(check (float 1e-9))
        (name ^ ": predicted gap = region gap x overhead")
        expected gap)
    [ ("spin@4", Spin_barrier, 4);
      ("fork@4", Os_fork_join, 4);
      ("spin@16", Spin_barrier, 16) ]

(* ------------------------------------------------------------------ *)
(* Reduce clamp (satellite: fork/join with lanes > range)              *)
(* ------------------------------------------------------------------ *)

(* Parallel maximum of [f i] over the range, folded into the lane
   slots of {!Parallel.Exec.parallel_reduce_lanes}. *)
let reduce_max exec ~lo ~hi f =
  Parallel.Exec.parallel_reduce_lanes exec ~lo ~hi ~init:Float.neg_infinity
    ~combine:Float.max (fun ~acc ~cell ~lane:_ i ->
      let v = f i in
      if v > acc.(cell) then acc.(cell) <- v)

let test_fork_join_reduce_short_range () =
  let exec = Parallel.Exec.fork_join ~lanes:8 in
  let m =
    reduce_max exec ~lo:0 ~hi:3 (fun i ->
        float_of_int (10 - i))
  in
  check_float "max over short range" 10. m;
  check_float "empty range" neg_infinity
    (reduce_max exec ~lo:0 ~hi:0 (fun _ -> 1.))

(* ------------------------------------------------------------------ *)
(* Checkpoint / restart                                                *)
(* ------------------------------------------------------------------ *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "engine-ckpt-%d-%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Persist.Checkpoint.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e -> Sys.remove (Filename.concat dir e))
           (Sys.readdir dir);
         Sys.rmdir dir
       with Sys_error _ -> ()))
    (fun () -> f dir)

(* Bitwise state equality: zero max |difference| in every conserved
   variable, not a tolerance. *)
let check_states_identical label a b =
  List.iter
    (fun (d : Engine.Validate.divergence) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: %s identical" label d.Engine.Validate.var)
        0. d.Engine.Validate.max_abs)
    (Engine.Validate.divergences a b)

let check_dts_identical label a b =
  check_int (label ^ ": same step count") (List.length a) (List.length b);
  List.iteri
    (fun i (x, y) ->
      check_bool
        (Printf.sprintf "%s: dt[%d] bitwise" label i)
        true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
    (List.combine a b)

let march inst n =
  List.init n (fun _ -> Engine.Backend.step inst)

(* The acceptance criterion of the subsystem: checkpoint at step [n1],
   resume (through a full encode/decode of the binary format), march
   to [n1 + n2] — every dt and every conserved value must equal the
   uninterrupted run's, bitwise. *)
let check_resume_bitwise ?(label = "") ~mk_exec ?fused ~config ~problem n1 n2
    backend =
  let label = if label = "" then backend else label ^ "/" ^ backend in
  let uninterrupted =
    Engine.Registry.create ~exec:(mk_exec ()) ~config backend (problem ())
  in
  let dts_a = march uninterrupted (n1 + n2) in
  let first =
    Engine.Registry.create ~exec:(mk_exec ()) ~config backend (problem ())
  in
  let dts_b1 = march first n1 in
  let snap =
    Persist.Snapshot.decode
      (Persist.Snapshot.encode (Engine.Backend.snapshot first))
  in
  check_int (label ^ ": snapshot steps") n1 snap.Persist.Snapshot.steps;
  let resumed = Engine.Registry.resume ~exec:(mk_exec ()) ?fused snap (problem ()) in
  check_int (label ^ ": resumed steps") n1 (Engine.Backend.steps resumed);
  check_states_identical (label ^ " at n1") (Engine.Backend.state first)
    (Engine.Backend.state resumed);
  let dts_b2 = march resumed n2 in
  check_dts_identical label dts_a (dts_b1 @ dts_b2);
  check_states_identical label
    (Engine.Backend.state uninterrupted)
    (Engine.Backend.state resumed);
  (* The continuations' snapshots are byte-identical too. *)
  check_string (label ^ ": snapshots byte-identical")
    (Persist.Snapshot.encode (Engine.Backend.snapshot uninterrupted))
    (Persist.Snapshot.encode (Engine.Backend.snapshot resumed))

let seq () = Parallel.Exec.sequential ()

let test_resume_bitwise_all_backends () =
  List.iter
    (check_resume_bitwise ~mk_exec:seq
       ~config:Euler.Solver.benchmark_config
       ~problem:(fun () -> Euler.Setup.sod ~nx:32 ())
       6 6)
    (Engine.Registry.names ());
  (* 2D coverage for the backends that support it. *)
  List.iter
    (check_resume_bitwise ~label:"2d" ~mk_exec:seq
       ~config:Euler.Solver.benchmark_config
       ~problem:(fun () -> Euler.Setup.quadrant ~nx:8 ())
       4 4)
    [ "reference"; "array"; "fortran"; "fortran-outer" ]

let test_resume_bitwise_schedulers () =
  List.iter
    (fun (label, mk_exec) ->
      List.iter
        (fun fused ->
          check_resume_bitwise
            ~label:(Printf.sprintf "%s/%s" label
                      (if fused then "fused" else "unfused"))
            ~mk_exec ~fused
            ~config:
              { Euler.Solver.benchmark_config with Euler.Solver.fused }
            ~problem:(fun () -> Euler.Setup.sod ~nx:32 ())
            5 5 "reference")
        [ true; false ])
    [ ("seq", seq);
      ("spmd", fun () -> Parallel.Exec.spmd ~lanes:2);
      ("forkjoin", fun () -> Parallel.Exec.fork_join ~lanes:2) ]

let test_resume_bitwise_scheme_matrix () =
  List.iter
    (fun (label, config) ->
      check_resume_bitwise ~label ~mk_exec:seq ~config
        ~problem:(fun () -> Euler.Setup.sod ~nx:32 ())
        5 5 "reference")
    [ ("weno3-hllc-rk3", Euler.Solver.default_config);
      ( "weno5-roe-rk2",
        { Euler.Solver.default_config with
          Euler.Solver.recon = Euler.Recon.Weno5;
          riemann = Euler.Riemann.Roe;
          rk = Euler.Rk.Tvd_rk2 } );
      ( "tvd2-hll-euler1",
        { Euler.Solver.default_config with
          Euler.Solver.recon = Euler.Recon.Tvd2 Euler.Limiter.Minmod;
          riemann = Euler.Riemann.Hll;
          rk = Euler.Rk.Euler1 } ) ]

let test_resume_cross_tiling () =
  (* Tiled runs snapshot through a gather to the monolithic format, so
     checkpoints cross the decomposition boundary in both directions:
     a monolithic checkpoint resumes under tiling and vice versa, and
     every continuation equals the uninterrupted monolithic run
     bitwise — dt sequence, state and re-snapshot alike. *)
  let problem () = Euler.Setup.quadrant ~nx:12 () in
  let config tiles =
    { Euler.Solver.benchmark_config with Euler.Solver.tiles }
  in
  let start tiles =
    Engine.Registry.create ~config:(config tiles) "reference" (problem ())
  in
  let uninterrupted = start (1, 1) in
  let dts_a = march uninterrupted 8 in
  List.iter
    (fun (label, t1, t2) ->
      let first = start t1 in
      let dts_b1 = march first 4 in
      let snap =
        Persist.Snapshot.decode
          (Persist.Snapshot.encode (Engine.Backend.snapshot first))
      in
      let resumed = Engine.Registry.resume ~tiles:t2 snap (problem ()) in
      check_states_identical (label ^ " at n1") (Engine.Backend.state first)
        (Engine.Backend.state resumed);
      let dts_b2 = march resumed 4 in
      check_dts_identical label dts_a (dts_b1 @ dts_b2);
      check_states_identical label
        (Engine.Backend.state uninterrupted)
        (Engine.Backend.state resumed);
      check_string (label ^ ": snapshots byte-identical")
        (Persist.Snapshot.encode (Engine.Backend.snapshot uninterrupted))
        (Persist.Snapshot.encode (Engine.Backend.snapshot resumed)))
    [ ("mono->tiled", (1, 1), (2, 2));
      ("tiled->mono", (2, 2), (1, 1));
      ("tiled->tiled-uneven", (2, 2), (3, 2)) ]

let test_resume_rejects_mismatch () =
  let snap =
    let inst =
      Engine.Registry.create ~config:Euler.Solver.benchmark_config
        "reference" (Euler.Setup.sod ~nx:32 ())
    in
    ignore (march inst 3);
    Engine.Backend.snapshot inst
  in
  let expect_mismatch name f =
    match f () with
    | _ -> Alcotest.failf "%s: resumed instead of raising Mismatch" name
    | exception Persist.Snapshot.Mismatch msg ->
      check_bool (name ^ " diagnostic") true (String.length msg > 0)
  in
  expect_mismatch "wrong grid" (fun () ->
      Engine.Registry.resume snap (Euler.Setup.sod ~nx:16 ()));
  expect_mismatch "wrong gamma" (fun () ->
      Engine.Registry.resume snap (Euler.Setup.sod ~gamma:1.67 ~nx:32 ()));
  expect_mismatch "wrong scheme" (fun () ->
      Engine.Backend.restore
        (Engine.Registry.find_exn "reference")
        (Engine.Backend.spec ~config:Euler.Solver.default_config
           (Euler.Setup.sod ~nx:32 ()))
        snap);
  expect_mismatch "wrong backend" (fun () ->
      Engine.Backend.restore
        (Engine.Registry.find_exn "array")
        (Engine.Backend.spec ~config:Euler.Solver.benchmark_config
           (Euler.Setup.sod ~nx:32 ()))
        snap)

let test_autosave_cadence_and_retention () =
  with_tmpdir (fun dir ->
      let inst =
        Engine.Registry.create ~config:Euler.Solver.benchmark_config
          "reference" (sod ())
      in
      let m =
        Engine.Run.run_steps
          ~autosave:(Engine.Run.autosave ~every_steps:2 ~retain:3 dir)
          inst 10
      in
      check_int "five snapshots written" 5 m.Engine.Metrics.checkpoints;
      Alcotest.(check (list int)) "newest three retained" [ 6; 8; 10 ]
        (List.map fst (Persist.Checkpoint.list dir));
      check_bool "bytes accounted" true
        (m.Engine.Metrics.checkpoint_bytes > 0);
      check_bool "payload fraction sane" true
        (let f = Engine.Metrics.checkpoint_payload_fraction m in
         f > 0.5 && f < 1.);
      check_bool "checkpoint wall accounted" true
        (Engine.Metrics.ms_per_checkpoint m >= 0.);
      (* The newest checkpoint IS the live state. *)
      match Engine.Registry.resume_latest ~dir (sod ()) with
      | None -> Alcotest.fail "expected a resumable checkpoint"
      | Some (_, resumed) ->
        check_int "resumed at 10" 10 (Engine.Backend.steps resumed);
        check_states_identical "autosave tail"
          (Engine.Backend.state inst)
          (Engine.Backend.state resumed))

(* Crash simulation: the newest checkpoint is torn mid-write; resume
   must fall back to the previous retained one and still reach the
   uninterrupted end state bitwise. *)
let test_crash_falls_back_to_retained () =
  with_tmpdir (fun dir ->
      let uninterrupted =
        Engine.Registry.create ~config:Euler.Solver.benchmark_config
          "reference" (sod ())
      in
      ignore (march uninterrupted 10);
      let crashed =
        Engine.Registry.create ~config:Euler.Solver.benchmark_config
          "reference" (sod ())
      in
      ignore
        (Engine.Run.run_steps
           ~autosave:(Engine.Run.autosave ~every_steps:2 ~retain:3 dir)
           crashed 10);
      let newest = Filename.concat dir (Persist.Checkpoint.file_name ~steps:10) in
      let bytes = In_channel.with_open_bin newest In_channel.input_all in
      Out_channel.with_open_bin newest (fun oc ->
          Out_channel.output_string oc
            (String.sub bytes 0 (String.length bytes - 7)));
      match Engine.Registry.resume_latest ~dir (sod ()) with
      | None -> Alcotest.fail "expected fallback to an intact checkpoint"
      | Some (path, resumed) ->
        check_string "fell back to step 8"
          (Filename.concat dir (Persist.Checkpoint.file_name ~steps:8))
          path;
        check_int "resumed at 8" 8 (Engine.Backend.steps resumed);
        ignore (march resumed 2);
        check_states_identical "crash recovery"
          (Engine.Backend.state uninterrupted)
          (Engine.Backend.state resumed))

(* dune runtest runs from _build/default/test, where the committed
   store is staged by the (deps (glob_files golden/*.swck)) stanza;
   `dune exec test/test_engine.exe` runs from the repo root. *)
let golden_root =
  if Sys.file_exists "golden" then "golden" else "test/golden"

let test_golden_suite_matrix_shape () =
  let entries = Engine.Golden_suite.all in
  check_bool "matrix covers every backend" true
    (List.for_all
       (fun b ->
         List.exists (fun (e : Engine.Golden_suite.entry) -> e.backend = b)
           entries)
       (Engine.Registry.names ()));
  (* Keys are unique and filesystem-safe. *)
  let keys = List.map Engine.Golden_suite.key entries in
  check_int "keys unique" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k ->
      check_bool (k ^ " is a safe basename") true
        (not (String.contains k '/') && not (String.contains k ':')))
    keys

let test_golden_suite_against_committed () =
  List.iter
    (fun ((e : Engine.Golden_suite.entry), r) ->
      let name =
        Printf.sprintf "%s %s" e.Engine.Golden_suite.backend
          e.Engine.Golden_suite.label
      in
      match r with
      | Engine.Golden_suite.Pass _ -> ()
      | Engine.Golden_suite.Missing ->
        Alcotest.failf "%s: golden missing (run scripts/bless_golden.sh)"
          name
      | Engine.Golden_suite.Fail rep ->
        Alcotest.failf "%s: diverged from blessed state\n%s" name
          (Engine.Validate.to_string rep))
    (Engine.Golden_suite.check_all ~root:golden_root ())

(* ------------------------------------------------------------------ *)
(* Scenario registry                                                   *)
(* ------------------------------------------------------------------ *)

let test_scenario_names () =
  let names = Engine.Scenario.names () in
  check_int "ten scenarios" 10 (List.length names);
  List.iter
    (fun n -> check_bool (n ^ " registered") true (List.mem n names))
    [ "sod"; "lax"; "123"; "pulse"; "shu-osher"; "blast"; "uniform";
      "quadrant"; "two-channel"; "dmr" ];
  (* 1D cases enumerate before 2D ones. *)
  let ds =
    List.map
      (fun s -> s.Engine.Scenario.dims)
      (Engine.Scenario.all ())
  in
  check_bool "1d first" true
    (ds = List.sort compare ds);
  check_bool "lookup is case-insensitive" true
    (Option.is_some (Engine.Scenario.find "Sod"));
  check_bool "unknown is None" true
    (Option.is_none (Engine.Scenario.find "kelvin-helmholtz"));
  Alcotest.check_raises "find_exn lists the known names"
    (Invalid_argument
       (Printf.sprintf "Engine.Scenario: unknown scenario \"x\" (have: %s)"
          (String.concat ", " names)))
    (fun () -> ignore (Engine.Scenario.find_exn "x"))

let test_scenario_problem_validation () =
  let dmr = Engine.Scenario.find_exn "dmr" in
  check_bool "dmr rejects nx not divisible by 4" true
    (try
       ignore (Engine.Scenario.problem ~nx:50 dmr);
       false
     with Invalid_argument _ -> true);
  let prob = Engine.Scenario.golden_problem dmr in
  let g = prob.Euler.Setup.state.Euler.State.grid in
  check_int "dmr golden aspect" g.Euler.Grid.nx (4 * g.Euler.Grid.ny);
  (* Every scenario instantiates at its registered defaults. *)
  List.iter
    (fun s -> ignore (Engine.Scenario.problem s))
    (Engine.Scenario.all ())

(* ------------------------------------------------------------------ *)
(* Failure injection: near-vacuum and extreme-pressure scenarios       *)
(* ------------------------------------------------------------------ *)

(* The Einfeldt 123 tube pulls the centre toward vacuum; the blast
   wave carries a 1e5 pressure ratio.  Both are where naive solvers
   emit NaNs — every backend must march them to finite states. *)
let test_failure_injection () =
  List.iter
    (fun name ->
      let s = Engine.Scenario.find_exn name in
      List.iter
        (fun backend ->
          let inst =
            Engine.Registry.create
              ~config:(Engine.Scenario.config s)
              backend
              (Engine.Scenario.golden_problem s)
          in
          ignore (Engine.Run.run_steps inst s.Engine.Scenario.golden_steps);
          let st = Engine.Backend.state inst in
          let label = Printf.sprintf "%s on %s" name backend in
          Array.iteri
            (fun k comp ->
              Array.iter
                (fun v ->
                  if not (Float.is_finite v) then
                    Alcotest.failf "%s: non-finite in component %d" label k)
                comp)
            st.Euler.State.q;
          check_bool (label ^ " keeps density positive") true
            (Euler.State.min_density st > 0.);
          check_bool (label ^ " keeps pressure positive") true
            (Euler.State.min_pressure st > 0.))
        (Engine.Registry.names ()))
    [ "123"; "blast" ]

(* ------------------------------------------------------------------ *)
(* Convergence                                                         *)
(* ------------------------------------------------------------------ *)

(* Grid-refinement slopes on the smooth pulse must sit between an
   empirical floor (limiting and WENO weight adaptation cost accuracy
   at extrema; first-order diffusion erodes the pulse) and the formal
   order plus measurement slack.  The short horizon keeps even the
   first-order scheme in its asymptotic range. *)
let test_pulse_refinement_orders () =
  let pulse = Engine.Scenario.find_exn "pulse" in
  List.iter
    (fun (recon, riemann, floor) ->
      let config =
        { Euler.Solver.default_config with Euler.Solver.recon; riemann }
      in
      let st =
        Engine.Convergence.self_study ~t:0.05 pulse ~config [ 40; 80; 160 ]
      in
      let name = st.Engine.Convergence.scheme in
      check_bool (name ^ " errors shrink monotonically") true
        (Engine.Convergence.monotone st.Engine.Convergence.samples);
      if st.Engine.Convergence.order < floor then
        Alcotest.failf "%s: observed order %.2f below floor %.2f" name
          st.Engine.Convergence.order floor;
      if st.Engine.Convergence.order > st.Engine.Convergence.nominal +. 1.
      then
        Alcotest.failf "%s: observed order %.2f implausibly above nominal %.1f"
          name st.Engine.Convergence.order st.Engine.Convergence.nominal)
    [ (Euler.Recon.Piecewise_constant, Euler.Riemann.Rusanov, 0.6);
      (Euler.Recon.Tvd2 Euler.Limiter.Minmod, Euler.Riemann.Hllc, 1.3);
      (Euler.Recon.Weno3, Euler.Riemann.Hllc, 2.5);
      (Euler.Recon.Weno5, Euler.Riemann.Hllc, 1.6) ]

let test_sod_l1_monotone () =
  let sod = Engine.Scenario.find_exn "sod" in
  let st =
    Engine.Convergence.exact_study sod
      ~config:(Engine.Scenario.config sod)
      [ 40; 80; 160 ]
  in
  check_bool "L1 vs exact Riemann decreases under refinement" true
    (Engine.Convergence.monotone st.Engine.Convergence.samples);
  check_bool "slope is positive" true (st.Engine.Convergence.order > 0.)

let () =
  Alcotest.run "engine"
    [ ( "registry",
        [ Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "bad specs" `Quick
            test_registry_rejects_bad_spec ] );
      ( "driver",
        [ Alcotest.test_case "run_steps accounting" `Quick
            test_run_steps_accounting;
          Alcotest.test_case "run_until target" `Quick
            test_run_until_hits_target;
          Alcotest.test_case "matches native loop" `Quick
            test_driver_equals_native_loop;
          Alcotest.test_case "timing buckets" `Quick test_timing_buckets ] );
      ( "validate",
        [ Alcotest.test_case "native backends" `Slow
            test_cross_check_native_backends;
          Alcotest.test_case "sacprog" `Slow test_cross_check_sacprog;
          Alcotest.test_case "report shape" `Quick
            test_cross_check_report_shape ] );
      ( "metrics",
        [ Alcotest.test_case "array with-loops" `Quick
            test_array_notes_with_loops ] );
      ( "exec",
        [ Alcotest.test_case "fork/join short reduce" `Quick
            test_fork_join_reduce_short_range ] );
      ( "cost_model",
        [ Alcotest.test_case "tracks measured regions" `Quick
            test_cost_model_tracks_measured_regions ] );
      ( "resume",
        [ Alcotest.test_case "bitwise across backends" `Quick
            test_resume_bitwise_all_backends;
          Alcotest.test_case "bitwise across schedulers" `Slow
            test_resume_bitwise_schedulers;
          Alcotest.test_case "bitwise across schemes" `Quick
            test_resume_bitwise_scheme_matrix;
          Alcotest.test_case "bitwise across decompositions" `Quick
            test_resume_cross_tiling;
          Alcotest.test_case "mismatch rejected" `Quick
            test_resume_rejects_mismatch ] );
      ( "autosave",
        [ Alcotest.test_case "cadence and retention" `Quick
            test_autosave_cadence_and_retention;
          Alcotest.test_case "crash falls back" `Quick
            test_crash_falls_back_to_retained ] );
      ( "scenario",
        [ Alcotest.test_case "names" `Quick test_scenario_names;
          Alcotest.test_case "problem validation" `Quick
            test_scenario_problem_validation ] );
      ( "failure injection",
        [ Alcotest.test_case "123 and blast stay finite" `Slow
            test_failure_injection ] );
      ( "convergence",
        [ Alcotest.test_case "pulse refinement orders" `Slow
            test_pulse_refinement_orders;
          Alcotest.test_case "sod L1 monotone" `Slow
            test_sod_l1_monotone ] );
      ( "golden",
        [ Alcotest.test_case "matrix shape" `Quick
            test_golden_suite_matrix_shape;
          Alcotest.test_case "against committed store" `Slow
            test_golden_suite_against_committed ] ) ]
