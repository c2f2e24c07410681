(** Evaluator for mini-SaC programs.

    A tree-walking interpreter over {!Ast} with the runtime behaviour
    the paper describes: with-loops are data-parallel (an optional
    {!Parallel.Exec.t} runs genarray/modarray partitions on its
    lanes), and execution statistics count every with-loop — both
    explicit [with] constructs and the implicit ones hidden in
    whole-array arithmetic — so the effect of with-loop folding is
    directly measurable. *)

type stats = {
  mutable with_loops : int;
      (** with-loops executed: explicit [with]s plus every whole-array
          builtin operation. *)
  mutable elements : int;
      (** total elements those loops computed. *)
  mutable calls : int;  (** user-function invocations *)
  fun_calls : (string, int) Hashtbl.t;
      (** invocations per function name. *)
  with_execs : (string, int) Hashtbl.t;
      (** explicit [with]-loop executions per enclosing function
          ({!toplevel} outside any call); whole-array builtins are
          counted only in {!with_loops}. *)
  fold_execs : (string, int) Hashtbl.t;
      (** the [fold]-generator subset of {!with_execs}, per enclosing
          function — every fold is counted in both tables. *)
}

val fresh_stats : unit -> stats

val tally : (string, int) Hashtbl.t -> string -> unit
(** Increment a per-name counter (shared with {!Vm}'s statistics). *)

val toplevel : string
(** Key used in {!stats.with_execs} outside any function call. *)

val ty_of_value : Value.t -> Ast.ty
(** The exact (always shape-known) runtime type of a value, as used
    for dynamic overload resolution. *)

exception Error of string

type ctx

val make_ctx :
  ?exec:Parallel.Exec.t ->
  ?parallel_threshold:int ->
  Ast.program ->
  ctx
(** [exec] runs explicit with-loop partitions of at least
    [parallel_threshold] elements (default 1024) as parallel regions;
    omit it for sequential evaluation. *)

val stats : ctx -> stats

val eval_expr : ctx -> (string * Value.t) list -> Ast.expr -> Value.t
(** Evaluates an expression in the given environment.
    @raise Error on unbound variables, arity mismatches or bad
    with-loop frames
    @raise Value.Type_error on dynamically ill-typed operations. *)

val run_fun : ctx -> string -> Value.t list -> Value.t
(** Calls a program function by name.
    @raise Error if the function is missing, the arity differs, or
    the body finishes without [return]. *)
