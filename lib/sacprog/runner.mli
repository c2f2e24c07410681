(** Compile and run the embedded mini-SaC programs, and bridge their
    values to the native solver's state for validation.

    This is the reproduction's counterpart of the paper's SaC port:
    the same Sod problem, run through the mini-SaC pipeline
    (optionally optimised), compared cell-by-cell against
    {!Euler.Solver} in the identical benchmark configuration. *)

type compiled = {
  program : Sac.Ast.program;
  bytecode : Sac.Bytecode.program;
  report : Sac.Pipeline.report;
}

type engine = [ `Interp | `Vm ]
(** Which execution engine runs the compiled program: the bytecode VM
    ({!Sac.Vm}, the default) or the tree-walking interpreter
    ({!Sac.Eval}, kept for differential testing).  Both produce
    bitwise-identical results. *)

val compile_euler_1d : ?options:Sac.Pipeline.options -> unit -> compiled
(** Parse, type-check, optimise and lower {!Programs.euler_1d}, once
    per process and options: later calls (from any domain) return the
    same physical value.  {!Sac.Pipeline.compile_bytecode} stays
    uncached for a fresh compile. *)

val sod_state :
  ?exec:Parallel.Exec.t -> ?parallel_threshold:int -> ?engine:engine ->
  compiled -> nx:int -> steps:int -> Sac.Eval.stats * Tensor.Nd.t
(** Runs the mini-SaC solver [steps] steps on an [nx]-cell Sod tube
    (gamma 1.4, CFL 0.5) and returns the evaluator statistics plus
    the final [3 x nx] conserved state.  [parallel_threshold]
    (default 1024 elements) is the minimum partition size dispatched
    across lanes when [exec] is given — see {!Sac.Vm.make_ctx}. *)

val native_sod_state : nx:int -> steps:int -> Tensor.Nd.t
(** The same run through {!Euler.Solver} under
    {!Euler.Solver.benchmark_config}, delivered in the same [3 x nx]
    layout for comparison. *)

val compiles : unit -> int
(** How many compiles the cache behind {!compile_euler_1d} and
    {!compile_euler_2d} has run in this process: one per program and
    options first asked for. *)

val compile_euler_2d : ?options:Sac.Pipeline.options -> unit -> compiled
(** {!compile_euler_1d} for {!Programs.euler_2d}, cached the same way. *)

val quadrant_state :
  ?exec:Parallel.Exec.t -> ?parallel_threshold:int -> ?engine:engine ->
  compiled -> n:int -> steps:int -> Sac.Eval.stats * Tensor.Nd.t
(** Runs the mini-SaC 2D solver on an [n x n] quadrant problem and
    returns the statistics plus the final [4 x n x n] conserved
    state. *)

val native_quadrant_state : n:int -> steps:int -> Tensor.Nd.t
(** The same run through {!Euler.Solver} (benchmark configuration,
    outflow boundaries) in the same [4 x n x n] layout. *)

val max_abs_diff : Tensor.Nd.t -> Tensor.Nd.t -> float
(** Convenience re-export of {!Tensor.Nd.max_abs_diff}. *)
