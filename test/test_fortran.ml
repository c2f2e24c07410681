(* Tests for the Fortran-90-style baseline: storage layout, kernel
   behaviour, autopar granularities, and equivalence with the clean
   OCaml solver. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let seq () = Parallel.Exec.sequential ()

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let test_storage_roundtrip () =
  let prob = Euler.Setup.sod ~nx:20 () in
  let before = Euler.State.copy prob.Euler.Setup.state in
  let s = Fortran_baseline.Storage.of_state prob.Euler.Setup.state in
  let back = Fortran_baseline.Storage.to_state s in
  check_float "state copies exactly" 0. (Euler.State.max_abs_diff before back)

let test_storage_qp_order () =
  (* QP ordering matches the paper's GetDT listing: Ux, Uy, Pc, Rc. *)
  check_int "ux" 0 Fortran_baseline.Storage.i_ux;
  check_int "uy" 1 Fortran_baseline.Storage.i_uy;
  check_int "pc" 2 Fortran_baseline.Storage.i_pc;
  check_int "rc" 3 Fortran_baseline.Storage.i_rc

(* ------------------------------------------------------------------ *)
(* GetDT                                                               *)
(* ------------------------------------------------------------------ *)

let test_getdt_matches_reference () =
  let prob = Euler.Setup.two_channel ~cells_per_h:6 () in
  let expected =
    Euler.Time_step.dt ~cfl:0.5 (seq ()) prob.Euler.Setup.state
  in
  let f = Fortran_baseline.F_solver.of_problem prob in
  check_float "GetDT agrees" expected
    (Fortran_baseline.F_solver.get_dt f (seq ()))

let test_getdt_1d () =
  let prob = Euler.Setup.sod ~nx:50 () in
  let expected = Euler.Time_step.dt ~cfl:0.5 (seq ()) prob.Euler.Setup.state in
  let f = Fortran_baseline.F_solver.of_problem prob in
  check_float "1D GetDT agrees" expected
    (Fortran_baseline.F_solver.get_dt f (seq ()))

(* ------------------------------------------------------------------ *)
(* Equivalence with the reference solver                               *)
(* ------------------------------------------------------------------ *)

let equivalence_run ~autopar ~steps prob_f =
  let p1 = prob_f () in
  let reference =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:p1.Euler.Setup.bcs p1.Euler.Setup.state
  in
  Euler.Solver.run_steps reference steps;
  let p2 = prob_f () in
  let f = Fortran_baseline.F_solver.of_problem ~autopar p2 in
  Fortran_baseline.F_solver.run_steps f (seq ()) steps;
  ( Euler.State.max_abs_diff reference.Euler.Solver.state
      (Fortran_baseline.F_solver.state f),
    reference.Euler.Solver.time,
    f.Fortran_baseline.F_solver.time )

let test_equiv_sod () =
  let diff, t1, t2 =
    equivalence_run ~autopar:Fortran_baseline.F_solver.Inner ~steps:50
      (fun () -> Euler.Setup.sod ~nx:80 ())
  in
  check_bool "1D equivalent" true (diff < 1e-11);
  check_float "same time" t1 t2

let test_equiv_two_channel () =
  let diff, _, _ =
    equivalence_run ~autopar:Fortran_baseline.F_solver.Inner ~steps:25
      (fun () -> Euler.Setup.two_channel ~cells_per_h:8 ())
  in
  check_bool "2D equivalent" true (diff < 1e-10)

let test_equiv_lax () =
  let diff, _, _ =
    equivalence_run ~autopar:Fortran_baseline.F_solver.Outer ~steps:40
      (fun () -> Euler.Setup.lax ~nx:60 ())
  in
  check_bool "Lax equivalent" true (diff < 1e-11)

let test_autopar_granularities_agree () =
  (* Inner and Outer schedules are just different parallelisations of
     the same loops: identical results, different region counts. *)
  let run autopar =
    let p = Euler.Setup.two_channel ~cells_per_h:6 () in
    let f = Fortran_baseline.F_solver.of_problem ~autopar p in
    let exec = seq () in
    Fortran_baseline.F_solver.run_steps f exec 10;
    (Fortran_baseline.F_solver.state f, Parallel.Exec.regions exec)
  in
  let st_inner, regions_inner = run Fortran_baseline.F_solver.Inner in
  let st_outer, regions_outer = run Fortran_baseline.F_solver.Outer in
  check_float "identical fields" 0.
    (Euler.State.max_abs_diff st_inner st_outer);
  check_bool "inner creates many more regions" true
    (regions_inner > 5 * regions_outer)

let test_parallel_backends_agree () =
  (* Running the baseline through real SPMD and fork/join backends
     changes nothing numerically: at the outer granularity, and with
     per-row regions (the default [Inner]) on the high-order path,
     where the lanes of one row must not share flux scratch. *)
  List.iter
    (fun (label, problem, autopar, config, steps) ->
      let run exec =
        let f =
          Fortran_baseline.F_solver.of_problem ~autopar ~config (problem ())
        in
        Fortran_baseline.F_solver.run_steps f exec steps;
        Fortran_baseline.F_solver.state f
      in
      let a = run (seq ()) in
      let b = run (Parallel.Exec.spmd ~lanes:2) in
      let c = run (Parallel.Exec.fork_join ~lanes:2) in
      check_float (label ^ ": spmd equals seq") 0.
        (Euler.State.max_abs_diff a b);
      check_float (label ^ ": fork/join equals seq") 0.
        (Euler.State.max_abs_diff a c))
    [ ( "sod, outer",
        (fun () -> Euler.Setup.sod ~nx:40 ()),
        Fortran_baseline.F_solver.Outer,
        Euler.Solver.benchmark_config,
        15 );
      ( "two-channel weno3, inner",
        (fun () -> Euler.Setup.two_channel ~cells_per_h:6 ()),
        Fortran_baseline.F_solver.Inner,
        Euler.Solver.default_config,
        10 ) ]

let test_equiv_full_menu () =
  (* The baseline accepts the complete scheme menu; each combination
     must match the reference solver on a short Sod run. *)
  List.iter
    (fun (recon, riemann) ->
      let config =
        { Euler.Solver.recon;
          riemann;
          rk = Euler.Rk.Tvd_rk3;
          cfl = 0.4;
          fused = true;
          tiles = (1, 1) }
      in
      let p1 = Euler.Setup.sod ~nx:50 () in
      let reference =
        Euler.Solver.create ~config ~bcs:p1.Euler.Setup.bcs
          p1.Euler.Setup.state
      in
      Euler.Solver.run_steps reference 20;
      let p2 = Euler.Setup.sod ~nx:50 () in
      let f = Fortran_baseline.F_solver.of_problem ~config ~cfl:0.4 p2 in
      Fortran_baseline.F_solver.run_steps f (seq ()) 20;
      let name =
        Euler.Recon.name recon ^ "+" ^ Euler.Riemann.name riemann
      in
      check_bool (name ^ " equivalent") true
        (Euler.State.max_abs_diff reference.Euler.Solver.state
           (Fortran_baseline.F_solver.state f)
         < 1e-10))
    [ (Euler.Recon.Weno3, Euler.Riemann.Hllc);
      (Euler.Recon.Weno5, Euler.Riemann.Hll);
      (Euler.Recon.Tvd2 Euler.Limiter.Van_leer, Euler.Riemann.Roe);
      (Euler.Recon.Tvd3 Euler.Limiter.Minmod, Euler.Riemann.Rusanov) ]

let test_equiv_weno_2d () =
  let config = Euler.Solver.default_config in
  let p1 = Euler.Setup.two_channel ~cells_per_h:6 () in
  let reference =
    Euler.Solver.create ~config ~bcs:p1.Euler.Setup.bcs
      p1.Euler.Setup.state
  in
  Euler.Solver.run_steps reference 12;
  let p2 = Euler.Setup.two_channel ~cells_per_h:6 () in
  let f = Fortran_baseline.F_solver.of_problem ~config p2 in
  Fortran_baseline.F_solver.run_steps f (seq ()) 12;
  check_bool "WENO3+HLLC 2D equivalent" true
    (Euler.State.max_abs_diff reference.Euler.Solver.state
       (Fortran_baseline.F_solver.state f)
     < 1e-10)

let test_rk2_supported () =
  let config =
    { Euler.Solver.benchmark_config with Euler.Solver.rk = Euler.Rk.Tvd_rk2 }
  in
  let p1 = Euler.Setup.sod ~nx:40 () in
  let reference =
    Euler.Solver.create ~config ~bcs:p1.Euler.Setup.bcs p1.Euler.Setup.state
  in
  Euler.Solver.run_steps reference 15;
  let p2 = Euler.Setup.sod ~nx:40 () in
  let f = Fortran_baseline.F_solver.of_problem ~config p2 in
  Fortran_baseline.F_solver.run_steps f (seq ()) 15;
  check_bool "RK2 equivalent" true
    (Euler.State.max_abs_diff reference.Euler.Solver.state
       (Fortran_baseline.F_solver.state f)
     < 1e-11)

let test_conservation () =
  let p = Euler.Setup.sod ~nx:60 () in
  let f = Fortran_baseline.F_solver.of_problem p in
  let m0 = Euler.State.total_mass (Fortran_baseline.F_solver.state f) in
  Fortran_baseline.F_solver.run_steps f (seq ()) 30;
  check_float "mass conserved" m0
    (Euler.State.total_mass (Fortran_baseline.F_solver.state f))

let test_autopar_names () =
  Alcotest.(check string) "inner" "inner"
    (Fortran_baseline.F_solver.autopar_name Fortran_baseline.F_solver.Inner);
  Alcotest.(check string) "outer" "outer"
    (Fortran_baseline.F_solver.autopar_name Fortran_baseline.F_solver.Outer)

let () =
  Alcotest.run "fortran_baseline"
    [ ( "storage",
        [ Alcotest.test_case "roundtrip" `Quick test_storage_roundtrip;
          Alcotest.test_case "QP ordering" `Quick test_storage_qp_order ] );
      ( "getdt",
        [ Alcotest.test_case "matches reference 2D" `Quick
            test_getdt_matches_reference;
          Alcotest.test_case "matches reference 1D" `Quick test_getdt_1d ] );
      ( "equivalence",
        [ Alcotest.test_case "sod" `Quick test_equiv_sod;
          Alcotest.test_case "two-channel" `Quick test_equiv_two_channel;
          Alcotest.test_case "lax" `Quick test_equiv_lax;
          Alcotest.test_case "granularities agree" `Quick
            test_autopar_granularities_agree;
          Alcotest.test_case "parallel backends agree" `Quick
            test_parallel_backends_agree;
          Alcotest.test_case "full scheme menu" `Quick test_equiv_full_menu;
          Alcotest.test_case "weno 2d" `Quick test_equiv_weno_2d;
          Alcotest.test_case "rk2" `Quick test_rk2_supported;
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "autopar names" `Quick test_autopar_names ] ) ]
