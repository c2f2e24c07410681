(** Abstract syntax of the miniature SaC dialect.

    The dialect keeps the constructs the paper leans on: whole-array
    arithmetic, [with]-loops in genarray/modarray/fold modes, shape
    queries, [drop]/[take], C-like statements (assignment, [if],
    [for]-recurrences, [return]) and functions with shape-polymorphic
    array types ([double\[.\]], [double\[+\]], ...). *)

type base_ty = Tdouble | Tint | Tbool

(** Shape information ordered by the SaC subtyping lattice:
    known shape (AKS) below known dimensionality (AKD) below unknown
    dimensionality (AUD).  Scalars are [Aks \[\]]. *)
type shape_info =
  | Aks of int list  (** known shape *)
  | Akd of int       (** known rank, unknown extents *)
  | Aud              (** unknown rank *)

type ty = { base : base_ty; shape : shape_info }

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

(** Fold operators allowed in [fold] with-loops. *)
type foldop = Fsum | Fprod | Fmax | Fmin

type withgen =
  | Genarray of expr * expr
      (** [genarray (shape, default)]: array of the given shape; cells
          outside the partition take the default. *)
  | Modarray of expr
      (** [modarray a]: copy of [a] with the partition overwritten. *)
  | Fold of foldop * expr
      (** [fold (op, neutral)]: reduction over the partition. *)

and expr =
  | Dbl of float
  | Int of int
  | Bool of bool
  | Var of string
  | Vec of expr list                (** [\[e1, ..., en\]] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cond of expr * expr * expr      (** [c ? a : b], SaC's functional if *)
  | Call of string * expr list
  | Idx of expr * expr              (** [a\[iv\]] *)
  | With of wloop

and wloop = {
  ivar : string;                    (** index variable (an int vector) *)
  lb : expr;                        (** inclusive lower bound vector *)
  ub : expr;                        (** exclusive upper bound vector *)
  body : expr;
  gen : withgen;
}

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * expr * stmt list
      (** [For (i, init, cond, step, body)]:
          [for (i = init; cond; i = step) { body }] — the recurrence
          construct. *)
  | Return of expr

type param = { pname : string; pty : ty }

type fundef = {
  fname : string;
  ret : ty;
  params : param list;
  fbody : stmt list;
  finline : bool;                   (** declared [inline] *)
}

type program = fundef list

val scalar : base_ty -> ty
val vec_ty : base_ty -> int -> ty
(** [vec_ty b n] is a rank-1 AKS type of extent [n]. *)

val lookup_fun : program -> string -> fundef option

val binop_name : binop -> string
val foldop_name : foldop -> string

val equal_expr : expr -> expr -> bool
(** Structural equality (used by CSE and tests). *)

val free_vars : expr -> string list
(** Distinct free variables, in first-occurrence order.  With-loop
    index variables are bound in their body. *)

val subst : (string * expr) list -> expr -> expr
(** Capture-avoiding substitution of variables.  With-loop index
    variables shadow substitutions of the same name; substituting an
    expression whose free variables would be captured renames the
    binder. *)

val rename_ivar : string -> wloop -> wloop
(** [rename_ivar fresh w] renames the loop's index variable. *)

val expr_size : expr -> int
(** Node count, the inlining/unrolling cost metric. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up rewriting: applies the function to every subexpression,
    children first. *)

val fresh_name : string -> string
(** A name guaranteed not to clash with source identifiers (uses a
    reserved [$] character and a counter local to the calling
    domain). *)

val restart_fresh_names : program -> unit
(** Restarts this domain's {!fresh_name} counter just above every
    [$]-suffix already used in the program ([\[\]] restarts it at
    zero).  Called at the start of parsing and of optimisation, so
    the names a compile generates depend only on its input, never on
    earlier compiles in the process, and never clash with names the
    input already carries. *)
