(** The optimisation-cycle driver: mini-sac2c.

    Mirrors the compiler invocation of the paper's §5 table
    ([sac2c -maxoptcyc 100 -O3 -maxwlur 20 ...]): the passes —
    inlining, copy propagation, shape specialisation, constant
    folding, with-loop folding, with-loop unrolling, CSE, DCE — run
    as a cycle until the program stops changing or the cycle limit is
    hit. *)

type options = {
  maxoptcyc : int;     (** optimisation-cycle limit (paper: 100) *)
  maxwlur : int;       (** with-loop unrolling limit (paper: 20) *)
  do_fuse : bool;      (** with-loop folding on/off *)
  do_inline : bool;
  do_cse : bool;
  do_dce : bool;
  do_copy : bool;          (** copy propagation *)
  do_specialize : bool;    (** shape specialisation of generic calls *)
  inline_auto_threshold : int;
      (** also inline unmarked functions of at most this body size
          (0 disables) *)
  do_superinstructions : bool;
      (** fuse load/arith stack chains into superinstructions during
          bytecode lowering (see {!Compile.program}) *)
}

val default_options : options
(** The paper's configuration: 100 cycles, unroll limit 20,
    everything enabled, auto-inline threshold 0. *)

val o0 : options
(** Everything off (one parse-and-go pass).  Superinstruction fusion
    stays on — it is a property of the bytecode encoding, not of the
    AST optimisation cycle. *)

type report = {
  cycles_used : int;
  array_ops_before : int;
  array_ops_after : int;
      (** static with-loop/array-op counts (see
          {!Opt_fuse.array_op_nodes}) *)
  bytecode : Bytecode.summary option;
      (** bytecode-stage sizes; [None] unless produced by
          {!compile_bytecode} *)
  pass_ms : (string * float) list;
      (** wall time per pass in milliseconds, summed over cycles, in
          pipeline order: inline, copy, specialise, fold, fuse,
          unroll, cse, dce, typecheck (the self-checks), then lower
          when produced by {!compile_bytecode} *)
}

val optimize : ?options:options -> Ast.program -> Ast.program * report
(** Type-checks, then runs the cycle.  The result is re-type-checked
    after every cycle as a compiler self-check.  Restarts the
    domain's {!Ast.fresh_name} counter above the input's names, so
    the output depends only on the input and the options.
    @raise Typecheck.Error if the input (or, signalling a compiler
    bug, an intermediate result) is ill-typed. *)

val compile : ?options:options -> string -> Ast.program * report
(** Parse, type-check and optimise source text. *)

val compile_bytecode :
  ?options:options -> string -> Ast.program * Bytecode.program * report
(** {!compile}, then lower the optimised program to {!Bytecode} for
    execution on {!Vm} (the stage [sac2c] calls code generation).
    The report's [bytecode] field carries the stage's size summary. *)
