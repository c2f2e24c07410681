(** Bytecode VM for mini-SaC.

    Executes {!Bytecode.program}s (the product of {!Compile}) with the
    observable semantics of {!Eval}: the same values bit for bit, the
    same error messages, and the same {!Eval.stats} counts.  One
    caveat: inside a single with-loop range the specialised drivers
    may visit elements in a different order than {!Eval}'s row-major
    walk (column-outer execution, lane boxes), so when
    several elements of one range would each raise, which error
    surfaces first can differ — the set of possible errors, and
    whether the range errors at all, cannot.
    Function bodies run on a {!Value.t} stack machine; with-loop
    opcodes dispatch to loop drivers that — once the capture kinds and
    shapes are known at run time — specialise the body expression into
    a register kernel over unboxed float/int arrays, cached per
    descriptor and capture signature.  Bodies the specialiser cannot
    handle (nested with-loops, whole-array operations, vector
    arithmetic, user-function calls) fall back to the descriptor's
    generic stack-code body, so specialisation is a pure strength
    reduction: every program runs either way, with identical results.

    Explicit genarray/modarray partitions of at least
    [parallel_threshold] elements run as one region when [exec] is
    given: the partition is cut along its widest dimension into one
    contiguous box per lane, and each lane runs the sequential walk on
    its box.  Specialised [fold] kernels over max/min also
    parallelise at that threshold — per-lane accumulator slots
    combined deterministically in lane order, bitwise-identical to the
    sequential walk because max/min are exactly associative and
    commutative in IEEE arithmetic.  Sum/product folds (and generic
    fold bodies) stay sequential, as in {!Eval}: a lane-partial
    combine would change their rounding order.

    Full-cover genarray/modarray results (partitions that write every
    cell) reuse dead payloads, as SaC's reference counting reuses a
    dead result's memory.  A {!run_fun} call tracks the full-cover
    payloads it allocates on the orchestrating domain (at most 16).
    When it returns, each of them is dead unless it is physically the
    payload of the returned value: values are immutable, {!Value.t}
    has no compound variants, and views share their payload
    physically, so nothing else can still reach one.  The dead ones go
    to a per-context pool, and later full-cover with-loops of the same
    length take their payload from it instead of allocating.  A call
    that raises pools nothing, lanes inside a parallel region never
    touch the pool, and a context serves one {!run_fun} at a time. *)

type ctx

val make_ctx :
  ?exec:Parallel.Exec.t ->
  ?parallel_threshold:int ->
  ?kernels:bool ->
  Bytecode.program ->
  ctx
(** [kernels:false] disables run-time kernel specialisation, forcing
    every with-loop onto the generic stack-code path — useful for
    differential testing.  Other parameters as {!Eval.make_ctx}.
    @raise Eval.Error if a program function redefines a builtin. *)

val stats : ctx -> Eval.stats

val fold_kernel_execs : ctx -> int
(** Fold executions that ran on a specialised kernel (sequential or
    parallel), as opposed to the generic stack-code fallback.  A
    VM-only counter: {!Eval} has no kernels, so it lives outside
    {!Eval.stats}. *)

val run_fun : ctx -> string -> Value.t list -> Value.t
(** Calls a program function by name, resolving overloads on the
    exact runtime argument types as {!Eval.run_fun} does.
    @raise Eval.Error on missing functions, arity mismatches, bad
    with-loop frames, or bodies that finish without [return]
    @raise Value.Type_error on dynamically ill-typed operations. *)
