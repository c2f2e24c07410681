(* End-to-end integration tests: the three implementations against
   each other, the mini-SaC port against the native solver, and the
   full measurement-to-prediction chain behind Fig. 4. *)

let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Three-way equivalence                                               *)
(* ------------------------------------------------------------------ *)

let three_way ~steps prob_f =
  let p1 = prob_f () in
  let fused =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:p1.Euler.Setup.bcs p1.Euler.Setup.state
  in
  Euler.Solver.run_steps fused steps;
  let p2 = prob_f () in
  let arr = Euler.Array_style.create ~bcs:p2.Euler.Setup.bcs p2.Euler.Setup.state in
  Euler.Array_style.run_steps arr steps;
  let p3 = prob_f () in
  let ftn = Fortran_baseline.F_solver.of_problem p3 in
  Fortran_baseline.F_solver.run_steps ftn (Parallel.Exec.sequential ()) steps;
  ( fused.Euler.Solver.state,
    Euler.Array_style.state arr,
    Fortran_baseline.F_solver.state ftn )

let test_three_way_1d () =
  let a, b, c = three_way ~steps:60 (fun () -> Euler.Setup.sod ~nx:100 ()) in
  check_bool "fused = array-style" true (Euler.State.max_abs_diff a b < 1e-11);
  check_bool "fused = fortran" true (Euler.State.max_abs_diff a c < 1e-11)

let test_three_way_2d () =
  let a, b, c =
    three_way ~steps:30 (fun () -> Euler.Setup.two_channel ~cells_per_h:10 ())
  in
  check_bool "fused = array-style (2D)" true
    (Euler.State.max_abs_diff a b < 1e-10);
  check_bool "fused = fortran (2D)" true
    (Euler.State.max_abs_diff a c < 1e-10)

(* ------------------------------------------------------------------ *)
(* Mini-SaC port vs native                                             *)
(* ------------------------------------------------------------------ *)

let test_sacprog_unoptimised () =
  let c = Sacprog.Runner.compile_euler_1d ~options:Sac.Pipeline.o0 () in
  let _, q = Sacprog.Runner.sod_state c ~nx:40 ~steps:25 in
  let native = Sacprog.Runner.native_sod_state ~nx:40 ~steps:25 in
  check_bool "O0 port matches native" true
    (Sacprog.Runner.max_abs_diff q native < 1e-12)

let test_sacprog_optimised () =
  let c = Sacprog.Runner.compile_euler_1d () in
  let stats, q = Sacprog.Runner.sod_state c ~nx:40 ~steps:25 in
  let native = Sacprog.Runner.native_sod_state ~nx:40 ~steps:25 in
  check_bool "O3 port matches native" true
    (Sacprog.Runner.max_abs_diff q native < 1e-12);
  (* Optimisation must reduce the with-loop traffic. *)
  let c0 = Sacprog.Runner.compile_euler_1d ~options:Sac.Pipeline.o0 () in
  let stats0, _ = Sacprog.Runner.sod_state c0 ~nx:40 ~steps:25 in
  check_bool "fewer with-loops after -O3" true
    (stats.Sac.Eval.with_loops < stats0.Sac.Eval.with_loops);
  check_bool "fewer elements after -O3" true
    (stats.Sac.Eval.elements < stats0.Sac.Eval.elements)

let test_sacprog_parallel_eval () =
  let c = Sacprog.Runner.compile_euler_1d () in
  let exec = Parallel.Exec.spmd ~lanes:2 in
  let _, q_par = Sacprog.Runner.sod_state ~exec c ~nx:40 ~steps:10 in
  let _, q_seq = Sacprog.Runner.sod_state c ~nx:40 ~steps:10 in
  check_float "parallel evaluation identical" 0.
    (Sacprog.Runner.max_abs_diff q_par q_seq)

let test_sacprog_2d_quadrant () =
  (* The 2D port: quadrant problem, mini-SaC vs native, both
     unoptimised and through the full pipeline. *)
  let native = Sacprog.Runner.native_quadrant_state ~n:10 ~steps:6 in
  let c0 = Sacprog.Runner.compile_euler_2d ~options:Sac.Pipeline.o0 () in
  let _, q0 = Sacprog.Runner.quadrant_state c0 ~n:10 ~steps:6 in
  check_bool "2D O0 matches native" true
    (Sacprog.Runner.max_abs_diff q0 native < 1e-12);
  let c3 = Sacprog.Runner.compile_euler_2d () in
  let _, q3 = Sacprog.Runner.quadrant_state c3 ~n:10 ~steps:6 in
  check_bool "2D O3 matches native" true
    (Sacprog.Runner.max_abs_diff q3 native < 1e-12)

let test_sacprog_poisson_matches_tridiag () =
  (* The recurrence-style (for-loop) program against the substrate's
     Thomas solver. *)
  let prog = Sac.Parser.parse_program Sacprog.Programs.poisson_1d in
  Sac.Typecheck.check_program prog;
  let ctx = Sac.Eval.make_ctx prog in
  let n = 30 in
  let dx = 1. /. float_of_int (n + 1) in
  let f =
    Tensor.Nd.init [| n |] (fun iv -> Float.sin (float_of_int iv.(0)))
  in
  let u =
    Sac.Value.to_tensor
      (Sac.Eval.run_fun ctx "poisson1d"
         [ Sac.Value.Vdarr f; Sac.Value.Vdbl dx ])
  in
  check_bool "poisson recurrence matches Thomas" true
    (Tensor.Nd.max_abs_diff u (Tensor.Tridiag.poisson_1d ~dx f) < 1e-12)

let test_quadrant_native_features () =
  (* Sanity on the quadrant problem itself: stays physical and forms
     the diagonal jet (density above every initial value along the
     diagonal front). *)
  let prob = Euler.Setup.quadrant ~nx:40 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.default_config
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_until s 0.3;
  let st = s.Euler.Solver.state in
  check_bool "positive density" true (Euler.State.min_density st > 0.);
  check_bool "positive pressure" true (Euler.State.min_pressure st > 0.);
  check_bool "compression above initial max" true
    (Tensor.Nd.maxval (Euler.State.density_field st) > 1.5)

(* ------------------------------------------------------------------ *)
(* The Fig. 4 chain: measure -> model -> paper-shaped conclusions      *)
(* ------------------------------------------------------------------ *)

let test_fig4_shape () =
  let n = 40 in
  (* Instrument all three implementations on a small grid. *)
  let p1 = Euler.Setup.two_channel ~cells_per_h:(n / 2) () in
  let exec_f = Parallel.Exec.sequential () in
  let ftn = Fortran_baseline.F_solver.of_problem p1 in
  Fortran_baseline.F_solver.run_steps ftn exec_f 5;
  let fortran_regions = float_of_int (Parallel.Exec.regions exec_f) /. 5. in
  let p2 = Euler.Setup.two_channel ~cells_per_h:(n / 2) () in
  let arr = Euler.Array_style.create ~bcs:p2.Euler.Setup.bcs p2.Euler.Setup.state in
  Euler.Array_style.run_steps arr 5;
  let sac_regions = Euler.Array_style.with_loops_per_step arr in
  (* Inner-loop autopar creates one region per row per nest: far more
     regions than with-loops in the whole-array code. *)
  (* At this small grid (40 rows) the inner-loop region count is
     already above the with-loop count; it grows linearly with ny
     while the with-loop count stays fixed. *)
  check_bool "fortran region count large" true
    (fortran_regions > 1.2 *. sac_regions);
  (* Feed the model with synthetic but shape-faithful sequential
     times: Fortran faster at one core. *)
  let params = Parallel.Cost_model.default in
  let fortran =
    { Parallel.Cost_model.serial_s = 0.;
      parallel_s = 0.05;
      regions_per_step = fortran_regions *. 10. (* 400^2-scale rows *) }
  and sac =
    { Parallel.Cost_model.serial_s = 0.;
      parallel_s = 0.2;
      regions_per_step = sac_regions }
  in
  let t sched w cores =
    Parallel.Cost_model.predict_step params sched w ~cores
  in
  let open Parallel.Cost_model in
  (* 1 core: Fortran wins (paper: SaC much slower on one core). *)
  check_bool "fortran faster at 1 core" true
    (t Os_fork_join fortran 1 < t Spin_barrier sac 1);
  (* 16 cores: SaC wins (paper: SaC overtakes). *)
  check_bool "sac faster at 16 cores" true
    (t Spin_barrier sac 16 < t Os_fork_join fortran 16);
  (* Fortran degrades relative to its own best. *)
  let fortran_times =
    List.map (fun c -> t Os_fork_join fortran c) [ 1; 2; 4; 8; 16 ]
  in
  let best = List.fold_left Float.min Float.infinity fortran_times in
  check_bool "fortran 16-core worse than its best" true
    (t Os_fork_join fortran 16 > 1.2 *. best);
  (* SaC scales monotonically up to the bandwidth cap. *)
  check_bool "sac 16 cores beats sac 4 cores" true
    (t Spin_barrier sac 16 < t Spin_barrier sac 4);
  (* And a crossover exists. *)
  check_bool "crossover exists" true
    (Parallel.Cost_model.crossover params
       ~fast_serial:(Os_fork_join, fortran) ~scalable:(Spin_barrier, sac)
       ~max_cores:16
     <> None)

(* ------------------------------------------------------------------ *)
(* Long-run robustness                                                 *)
(* ------------------------------------------------------------------ *)

let test_two_channel_long_run_stable () =
  let p = Euler.Setup.two_channel ~cells_per_h:12 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.default_config
      ~bcs:p.Euler.Setup.bcs p.Euler.Setup.state
  in
  Euler.Solver.run_until s 0.6;
  let st = s.Euler.Solver.state in
  check_bool "density positive" true (Euler.State.min_density st > 0.);
  check_bool "pressure positive" true (Euler.State.min_pressure st > 0.);
  check_bool "density bounded" true
    (Tensor.Nd.maxval (Euler.State.density_field st) < 20.);
  (* Mach stem diagnostic (the Fig. 3 feature). *)
  let rho = Euler.State.density_field st in
  let nn = (Tensor.Nd.shape rho).(0) in
  let diag_max = ref 0. in
  for i = 0 to nn - 1 do
    diag_max := Float.max !diag_max (Tensor.Nd.get rho [| i; i |])
  done;
  let post =
    Euler.Rankine_hugoniot.post_shock ~gamma:Euler.Gas.gamma_air ~ms:2.2
      ~rho0:1. ~p0:1.
  in
  check_bool "Mach stem density excess" true
    (!diag_max > post.Euler.Rankine_hugoniot.rho)

let test_sod_shock_position () =
  (* The computed shock must sit at the exact solver's shock position
     x = 0.5 + 1.75216 t (Toro's Sod data). *)
  let p = Euler.Setup.sod ~nx:400 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.default_config
      ~bcs:p.Euler.Setup.bcs p.Euler.Setup.state
  in
  Euler.Solver.run_until s 0.2;
  let rho = Euler.State.density_profile s.Euler.Solver.state in
  (* Find the steepest downward jump right of the contact. *)
  let shock_i = ref 0 and steepest = ref 0. in
  for i = 300 to 398 do
    let d = rho.(i) -. rho.(i + 1) in
    if d > !steepest then begin
      steepest := d;
      shock_i := i
    end
  done;
  let x_shock = (float_of_int !shock_i +. 0.5) /. 400. in
  check_bool "shock near exact position" true
    (Float.abs (x_shock -. (0.5 +. (1.75216 *. 0.2))) < 0.02)

(* ------------------------------------------------------------------ *)
(* Differential property: random smooth initial states                 *)
(* ------------------------------------------------------------------ *)

let prop_fortran_matches_reference_random =
  (* Random smooth 1D initial states, integrated a few steps by both
     the reference solver and the Fortran-style baseline under a
     random scheme: they must agree to round-off. *)
  let gen =
    QCheck2.Gen.(
      let* a1 = float_range (-0.3) 0.3 in
      let* a2 = float_range (-0.3) 0.3 in
      let* u0 = float_range (-0.5) 0.5 in
      let* p0 = float_range 0.5 2. in
      let* scheme = int_range 0 3 in
      return (a1, a2, u0, p0, scheme))
  in
  QCheck2.Test.make ~name:"fortran baseline = reference on random states"
    ~count:12 gen (fun (a1, a2, u0, p0, scheme) ->
      let recon =
        match scheme with
        | 0 -> Euler.Recon.Piecewise_constant
        | 1 -> Euler.Recon.Tvd2 Euler.Limiter.Van_leer
        | 2 -> Euler.Recon.Weno3
        | _ -> Euler.Recon.Weno5
      in
      let riemann =
        match scheme with
        | 0 -> Euler.Riemann.Rusanov
        | 1 -> Euler.Riemann.Roe
        | 2 -> Euler.Riemann.Hllc
        | _ -> Euler.Riemann.Hll
      in
      let config =
        { Euler.Solver.recon;
          riemann;
          rk = Euler.Rk.Tvd_rk3;
          cfl = 0.4;
          fused = true;
          tiles = (1, 1) }
      in
      let init () =
        let grid = Euler.Grid.make_1d ~nx:48 ~lx:1. () in
        let st = Euler.State.create grid in
        Euler.State.init_primitive st (fun ~x ~y:_ ->
            let s k = Float.sin (2. *. Float.pi *. k *. x) in
            ( 1. +. (a1 *. s 1.) +. (a2 *. s 2.),
              u0 *. s 1.,
              0.,
              p0 *. (1. +. (a2 *. s 3.)) ));
        { Euler.Setup.state = st;
          bcs = [ (Euler.Bc.West, Euler.Bc.Outflow);
                  (Euler.Bc.East, Euler.Bc.Outflow) ];
          description = "random smooth state" }
      in
      let p1 = init () in
      let reference =
        Euler.Solver.create ~config ~bcs:p1.Euler.Setup.bcs
          p1.Euler.Setup.state
      in
      Euler.Solver.run_steps reference 8;
      let p2 = init () in
      let f = Fortran_baseline.F_solver.of_problem ~config ~cfl:0.4 p2 in
      Fortran_baseline.F_solver.run_steps f
        (Parallel.Exec.sequential ()) 8;
      Euler.State.max_abs_diff reference.Euler.Solver.state
        (Fortran_baseline.F_solver.state f)
      < 1e-11)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_fortran_matches_reference_random ]

let () =
  Alcotest.run "integration"
    [ ( "three-way",
        [ Alcotest.test_case "1d" `Quick test_three_way_1d;
          Alcotest.test_case "2d" `Quick test_three_way_2d ] );
      ( "sacprog",
        [ Alcotest.test_case "O0 vs native" `Quick test_sacprog_unoptimised;
          Alcotest.test_case "O3 vs native" `Quick test_sacprog_optimised;
          Alcotest.test_case "parallel eval" `Quick
            test_sacprog_parallel_eval;
          Alcotest.test_case "2D quadrant" `Quick test_sacprog_2d_quadrant;
          Alcotest.test_case "poisson recurrence" `Quick
            test_sacprog_poisson_matches_tridiag;
          Alcotest.test_case "quadrant features" `Quick
            test_quadrant_native_features ] );
      ( "fig4-chain",
        [ Alcotest.test_case "paper-shaped predictions" `Quick
            test_fig4_shape ] );
      ( "physics",
        [ Alcotest.test_case "two-channel long run" `Slow
            test_two_channel_long_run_stable;
          Alcotest.test_case "sod shock position" `Quick
            test_sod_shock_position ] );
      ("properties", qcheck_cases) ]
