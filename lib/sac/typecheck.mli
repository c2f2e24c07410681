(** Shape-aware type checking of mini-SaC programs.

    Every function body is checked against its declared signature:
    whole-array arithmetic requires statically consistent shapes
    (their {!Types.meet_shape} must exist), with-loop frames must be
    integer vectors of matching rank, calls require arguments to be
    subtypes of the declared parameter types (with int-to-double
    scalar promotion), and both [return] paths and conditional
    branches are joined on the lattice.

    Dimensionality propagates through calls the way the paper
    describes for sac2c: a call to a [double\[+\]] function with a
    [double\[.,.\]] argument is checked at the call site, so "no
    penalty is paid for the generic type" — and no per-rank code has
    to be written. *)

exception Error of string
(** Message carries the offending function's name. *)

val infer_expr :
  Ast.program -> (string * Ast.ty) list -> Ast.expr -> Ast.ty
(** Expression type in a given variable environment.
    @raise Error on ill-typed expressions. *)

type typed = {
  ty : Ast.ty option;  (** [None] where {!infer_expr} would raise *)
  kids : typed list;   (** the {!children}' annotations, in order *)
  inner : (Ast.ty * typed) option;
      (** for a with-loop whose bounds type-check: the index variable's
          type and the body's annotation under it *)
}
(** An expression's types, node by node, in one environment. *)

val children : Ast.expr -> Ast.expr list
(** The operands typed in the node's own environment, in order:
    vector elements, call arguments, [a; b] of a binary operator or
    an index, [c; a; b] of a conditional, and [lb; ub] then the
    generator's operands of a with-loop.  A with-loop body is not
    among them: it is typed with the index variable bound. *)

val annotate :
  Ast.program -> (string * Ast.ty) list -> Ast.expr -> typed
(** Types every node of an expression in one bottom-up pass, running
    each node's rule once, where querying {!infer_expr} at every node
    would re-type each subtree once per ancestor. *)

val check_fun : Ast.program -> Ast.fundef -> unit
val check_program : Ast.program -> unit
(** @raise Error on the first ill-typed function (duplicate function
    names and builtin redefinitions are also rejected). *)
