type compiled = {
  program : Sac.Ast.program;
  bytecode : Sac.Bytecode.program;
  report : Sac.Pipeline.report;
}

type engine = [ `Interp | `Vm ]

(* Compiled embedded programs, one per source text and options, for
   the whole process.  Sharing one [compiled] between VM contexts is
   safe: bytecode and AST are immutable (constants are scalars) and
   every kernel cache and counter lives in the context.  One lock
   guards the table and is held across a compile, so concurrent first
   requests for a program wait for one compile instead of racing (a
   [Lazy] forced from two domains at once would raise). *)
let cache : (string * Sac.Pipeline.options, compiled) Hashtbl.t =
  Hashtbl.create 4

let cache_lock = Mutex.create ()
let misses = ref 0

let compile_cached ?(options = Sac.Pipeline.default_options) src =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache (src, options) with
      | Some c -> c
      | None ->
        let program, bytecode, report =
          Sac.Pipeline.compile_bytecode ~options src
        in
        let c = { program; bytecode; report } in
        Hashtbl.add cache (src, options) c;
        incr misses;
        c)

let compiles () = Mutex.protect cache_lock (fun () -> !misses)

let compile_euler_1d ?options () = compile_cached ?options Programs.euler_1d

(* Both engines expose the same run-by-name interface; the bytecode VM
   is the default, the tree-walking interpreter stays available for
   differential testing.  [parallel_threshold] (default 1024 elements,
   see {!Sac.Vm.make_ctx}) gates when a with-loop or fold partition is
   worth dispatching across lanes. *)
let engine_of ?exec ?parallel_threshold engine compiled =
  match engine with
  | `Vm ->
    let ctx = Sac.Vm.make_ctx ?exec ?parallel_threshold compiled.bytecode in
    (Sac.Vm.run_fun ctx, fun () -> Sac.Vm.stats ctx)
  | `Interp ->
    let ctx =
      Sac.Eval.make_ctx ?exec ?parallel_threshold compiled.program
    in
    (Sac.Eval.run_fun ctx, fun () -> Sac.Eval.stats ctx)

let sod_state ?exec ?parallel_threshold ?(engine = `Vm) compiled ~nx ~steps =
  let run_fun, stats = engine_of ?exec ?parallel_threshold engine compiled in
  let q0 = run_fun "sod_init" [ Sac.Value.Vint nx ] in
  let result =
    run_fun "run"
      [ q0;
        Sac.Value.Vint steps;
        Sac.Value.Vdbl Euler.Gas.gamma_air;
        Sac.Value.Vdbl (1. /. float_of_int nx);
        Sac.Value.Vdbl 0.5 ]
  in
  (stats (), Sac.Value.to_tensor result)

let native_sod_state ~nx ~steps =
  let prob = Euler.Setup.sod ~nx () in
  let solver =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_steps solver steps;
  let st = solver.Euler.Solver.state in
  Tensor.Nd.init [| 3; nx |] (fun iv ->
      let o = Euler.Grid.offset st.Euler.State.grid iv.(1) 0 in
      let k =
        match iv.(0) with
        | 0 -> Euler.State.i_rho
        | 1 -> Euler.State.i_mx
        | _ -> Euler.State.i_e
      in
      st.Euler.State.q.(k).(o))

let compile_euler_2d ?options () = compile_cached ?options Programs.euler_2d

let quadrant_state ?exec ?parallel_threshold ?(engine = `Vm) compiled ~n
    ~steps =
  let run_fun, stats = engine_of ?exec ?parallel_threshold engine compiled in
  let q0 = run_fun "quadrant_init" [ Sac.Value.Vint n ] in
  let d = 1. /. float_of_int n in
  let result =
    run_fun "run2"
      [ q0;
        Sac.Value.Vint steps;
        Sac.Value.Vdbl Euler.Gas.gamma_air;
        Sac.Value.Vdbl d;
        Sac.Value.Vdbl d;
        Sac.Value.Vdbl 0.5 ]
  in
  (stats (), Sac.Value.to_tensor result)

let native_quadrant_state ~n ~steps =
  let prob = Euler.Setup.quadrant ~nx:n () in
  let solver =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_steps solver steps;
  let st = solver.Euler.Solver.state in
  Tensor.Nd.init [| 4; n; n |] (fun iv ->
      let o = Euler.Grid.offset st.Euler.State.grid iv.(2) iv.(1) in
      st.Euler.State.q.(iv.(0)).(o))

let max_abs_diff = Tensor.Nd.max_abs_diff
