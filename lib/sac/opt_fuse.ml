open Ast

exception Not_elementwise

let infer prog env e =
  try Some (Typecheck.infer_expr prog env e) with
  | Typecheck.Error _ -> None

(* Queries on a node's annotation (see {!Typecheck.annotate}): the
   element transformer and its helpers read the types annotated once
   per statement instead of re-inferring every subtree they visit. *)
let is_double_array (t : Typecheck.typed) =
  match t.ty with
  | Some t -> t.base = Tdouble && t.shape <> Aks []
  | None -> false

let is_scalar_expr (t : Typecheck.typed) =
  match t.ty with Some t -> Types.is_scalar t | None -> false

let rank_of (t : Typecheck.typed) =
  match t.ty with Some t -> Types.rank_of t.shape | None -> None

let literal_ints es =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Int n :: rest -> go (n :: acc) rest
    | Unop (Neg, Int n) :: rest -> go (-n :: acc) rest
    | _ -> None
  in
  go [] es

(* Pad a drop/take vector to the operand's rank with zeros. *)
let pad_to rank v = v @ List.init (rank - List.length v) (fun _ -> 0)

let is_arith = function
  | Add | Sub | Mul | Div -> true
  | _ -> false

let elementwise_builtin = function
  | "fabs" | "sqrt" | "exp" | "log" -> true
  | _ -> false

(* Does the partition of this with-loop cover its whole genarray
   frame?  Conservative: literal zero lower bound and an upper bound
   syntactically equal to the shape. *)
let is_zero_bound_of s lb =
  match lb with
  | Vec es -> (
    match literal_ints es with
    | Some ns -> List.for_all (fun n -> n = 0) ns
    | None -> false)
  | Binop (Mul, s', Int 0) -> equal_expr s' s
  | _ -> false

let full_partition w =
  match w.gen with
  | Genarray (s, _) -> equal_expr w.ub s && is_zero_bound_of s w.lb
  | Modarray _ | Fold _ -> false

(* ------------------------------------------------------------------ *)
(* The element transformer: elem(e, ix) is the scalar expression for   *)
(* element [ix] of array expression [e].                               *)
(* ------------------------------------------------------------------ *)

let rec elem e (t : Typecheck.typed) ix =
  if is_scalar_expr t then e
  else
    match (e, t.kids) with
    | Var _, _ -> Idx (e, ix)
    | Binop (op, a, b), [ ta; tb ] when is_arith op ->
      Binop (op, elem a ta ix, elem b tb ix)
    | Unop (Neg, a), [ ta ] -> Unop (Neg, elem a ta ix)
    | Call ("drop", [ Vec lits; a ]), [ _; ta ] -> (
      match (literal_ints lits, rank_of ta) with
      | Some ks, Some r when List.length ks <= r ->
        let offs = List.map (fun k -> Int (max k 0)) (pad_to r ks) in
        elem a ta (Binop (Add, ix, Vec offs))
      | _ -> raise Not_elementwise)
    | Call ("take", [ Vec lits; a ]), [ _; ta ] -> (
      (* Only front takes preserve offsets. *)
      match (literal_ints lits, rank_of ta) with
      | Some ks, Some r
        when List.length ks <= r && List.for_all (fun k -> k >= 0) ks ->
        elem a ta ix
      | _ -> raise Not_elementwise)
    | Call (f, [ a ]), [ ta ] when elementwise_builtin f ->
      Call (f, [ elem a ta ix ])
    | Call (("min" | "max") as f, [ a; b ]), [ ta; tb ] ->
      Call (f, [ elem a ta ix; elem b tb ix ])
    | With w, _ when full_partition w ->
      (* True with-loop folding: substitute the consumer's index into
         the producer's body. *)
      subst [ (w.ivar, ix) ] w.body
    | _ -> raise Not_elementwise

(* Shape of the result, as an expression evaluated at runtime. *)
let rec shape_of e (t : Typecheck.typed) =
  if is_scalar_expr t then raise Not_elementwise
  else
    match (e, t.kids) with
    | Var _, _ -> Call ("shape", [ e ])
    | Binop (op, a, b), [ ta; tb ] when is_arith op ->
      if is_double_array ta then shape_of a ta else shape_of b tb
    | Unop (Neg, a), [ ta ] -> shape_of a ta
    | Call ("drop", [ Vec lits; a ]), [ _; ta ] -> (
      match (literal_ints lits, rank_of ta) with
      | Some ks, Some r when List.length ks <= r ->
        let abs_ks = List.map (fun k -> Int (abs k)) (pad_to r ks) in
        Binop (Sub, shape_of a ta, Vec abs_ks)
      | _ -> raise Not_elementwise)
    | Call ("take", [ Vec lits; _ ]), [ _; ta ] -> (
      match (literal_ints lits, rank_of ta) with
      | Some ks, Some r
        when List.length ks = r && List.for_all (fun k -> k >= 0) ks ->
        Vec (List.map (fun k -> Int k) ks)
      | _ -> raise Not_elementwise)
    | Call (f, [ a ]), [ ta ] when elementwise_builtin f -> shape_of a ta
    | Call (("min" | "max"), [ a; b ]), [ ta; tb ] ->
      if is_double_array ta then shape_of a ta else shape_of b tb
    | With w, _ -> (
      match w.gen with
      | Genarray (s, _) -> s
      | Modarray _ | Fold _ -> raise Not_elementwise)
    | _ -> raise Not_elementwise

(* Count the whole-array operations a candidate expression would
   execute unfused. *)
let rec array_ops e (t : Typecheck.typed) =
  if is_scalar_expr t then 0
  else
    match (e, t.kids) with
    | (Var _ | Dbl _ | Int _ | Bool _), _ -> 0
    | Binop (op, a, b), [ ta; tb ] when is_arith op ->
      1 + array_ops a ta + array_ops b tb
    | Unop (Neg, a), [ ta ] -> 1 + array_ops a ta
    | Call (("drop" | "take"), [ _; a ]), [ _; ta ] -> 1 + array_ops a ta
    | Call (f, [ a ]), [ ta ] when elementwise_builtin f -> 1 + array_ops a ta
    | Call (("min" | "max"), [ a; b ]), [ ta; tb ] ->
      1 + array_ops a ta + array_ops b tb
    | With _, _ -> 1
    | _ -> 0

(* Lower bound of a full frame: a literal zero vector when the rank is
   static, otherwise the shape multiplied by zero (rank-generic — this
   is what lets [double[+]] code fuse without specialisation). *)
let zero_bound rank shp =
  match rank with
  | Some r -> Vec (List.init r (fun _ -> Int 0))
  | None -> Binop (Mul, shp, Int 0)

(* The array expression [e] (typed [t]) as one with-loop producing
   [gen]; [None] when [e] is no double array, has no array operation
   to fold, or is not elementwise. *)
let as_with_loop e (t : Typecheck.typed) gen =
  match t.ty with
  | Some { base = Tdouble; shape } when shape <> Aks [] -> (
    (* Threshold 1: even a lone whole-array primitive becomes an
       explicit with-loop (it already executes as one), which exposes
       it to cross-statement folding. *)
    if array_ops e t < 1 then None
    else
      try
        let shp = shape_of e t in
        let iv = fresh_name "iv" in
        let body = elem e t (Var iv) in
        Some
          (With
             { ivar = iv;
               lb = zero_bound (Types.rank_of shape) shp;
               ub = shp;
               body;
               gen = gen shp })
      with Not_elementwise -> None)
  | _ -> None

let try_fuse e t =
  match e with
  | With _ ->
    (* Already a single with-loop: rewriting it would only churn
       index-variable names. *)
    None
  | _ -> as_with_loop e t (fun shp -> Genarray (shp, Dbl 0.))

(* Reduction folding: sum/maxval/minval over an elementwise tree
   becomes a single fold with-loop, so no intermediate array is
   materialised at all.  (Over an empty frame the fold returns its
   neutral element where the builtin would fail — a benign
   refinement.) *)
let try_fuse_reduction f arg targ =
  let op, neutral =
    match f with
    | "sum" -> (Fsum, Dbl 0.)
    | "maxval" -> (Fmax, Dbl Float.neg_infinity)
    | _ -> (Fmin, Dbl Float.infinity)
  in
  as_with_loop arg targ (fun _ -> Fold (op, neutral))

(* Top-down rewrite: fuse the largest fusible subtrees.  [t] is [e]'s
   annotation in [env]; a with-loop body is annotated afresh with its
   index variable bound. *)
let rec fuse_expr prog env e (t : Typecheck.typed) =
  let reduction =
    match (e, t.kids) with
    | Call (("sum" | "maxval" | "minval") as f, [ arg ]), [ targ ] ->
      try_fuse_reduction f arg targ
    | _ -> None
  in
  match reduction with
  | Some e' -> e'
  | None -> (
  match try_fuse e t with
  | Some e' -> e'
  | None -> (
    let go = fuse_expr prog env in
    match (e, t.kids) with
    | (Dbl _ | Int _ | Bool _ | Var _), _ -> e
    | Vec es, ts -> Vec (List.map2 go es ts)
    | Binop (op, a, b), [ ta; tb ] -> Binop (op, go a ta, go b tb)
    | Unop (op, a), [ ta ] -> Unop (op, go a ta)
    | Cond (c, a, b), [ tc; ta; tb ] -> Cond (go c tc, go a ta, go b tb)
    | Call (f, args), targs -> Call (f, List.map2 go args targs)
    | Idx (a, i), [ ta; ti ] -> Idx (go a ta, go i ti)
    | With w, tlb :: tub :: tgen ->
      let rank =
        match tlb.ty with
        | Some t -> (match t.shape with Aks [ n ] -> Some n | _ -> None)
        | None -> None
      in
      let ivt =
        { base = Tint;
          shape = (match rank with Some n -> Aks [ n ] | None -> Akd 1) }
      in
      let env' = (w.ivar, ivt) :: env in
      (* The body's annotation serves when the checker bound the index
         variable to the same type. *)
      let tbody =
        match t.inner with
        | Some (ivt', tbody) when ivt' = ivt -> tbody
        | _ -> Typecheck.annotate prog env' w.body
      in
      With
        { w with
          lb = go w.lb tlb;
          ub = go w.ub tub;
          body = fuse_expr prog env' w.body tbody;
          gen =
            (match (w.gen, tgen) with
             | Genarray (s, d), [ ts; td ] -> Genarray (go s ts, go d td)
             | Modarray a, [ ta ] -> Modarray (go a ta)
             | Fold (op, n), [ tn ] -> Fold (op, go n tn)
             | _ -> assert false) }
    | _ -> assert false))

(* Fuse a whole expression typed in [env]. *)
and fuse_in prog env e = fuse_expr prog env e (Typecheck.annotate prog env e)


(* Statement walk with type-environment tracking, including a small
   fixpoint for loop-carried variables (their static shapes may
   generalise across iterations, and fusing against a stale AKS shape
   would be wrong). *)
let rec body_env prog env stmts =
  List.fold_left
    (fun env s ->
      match s with
      | Assign (v, e) -> (
        match infer prog env e with
        | Some t -> (v, t) :: List.remove_assoc v env
        | None -> List.remove_assoc v env)
      | Return _ -> env
      | If (_, a, b) ->
        let ea = body_env prog env a and eb = body_env prog env b in
        List.filter_map
          (fun (v, t1) ->
            match List.assoc_opt v eb with
            | Some t2 when t1.base = t2.base ->
              Some
                (v, { base = t1.base;
                      shape = Types.join_shape t1.shape t2.shape })
            | _ -> None)
          ea
      | For (v, init, _, _, body) ->
        let t0 =
          match infer prog env init with
          | Some t -> t
          | None -> scalar Tint
        in
        stable_loop_env prog ((v, t0) :: List.remove_assoc v env) body)
    env stmts

and stable_loop_env prog env body =
  let rec go env iters =
    let after = body_env prog env body in
    let joined =
      List.map
        (fun (v, t1) ->
          match List.assoc_opt v after with
          | Some t2 when t1.base = t2.base ->
            (v, { base = t1.base;
                  shape = Types.join_shape t1.shape t2.shape })
          | _ -> (v, t1))
        env
    in
    if joined = env || iters >= 4 then joined else go joined (iters + 1)
  in
  go env 0

let rec fuse_stmts prog env stmts =
  match stmts with
  | [] -> []
  | s :: rest ->
    let s', env' =
      match s with
      | Assign (v, e) ->
        let t = Typecheck.annotate prog env e in
        let e' = fuse_expr prog env e t in
        (* An unchanged right-hand side keeps its annotated type. *)
        let ty = if e' = e then t.ty else infer prog env e' in
        let env' =
          match ty with
          | Some t -> (v, t) :: List.remove_assoc v env
          | None -> List.remove_assoc v env
        in
        (Assign (v, e'), env')
      | Return e -> (Return (fuse_in prog env e), env)
      | If (c, a, b) ->
        ( If
            ( fuse_in prog env c,
              fuse_stmts prog env a,
              fuse_stmts prog env b ),
          body_env prog env [ s ] )
      | For (v, init, cond, step, body) ->
        let t0 =
          match infer prog env init with
          | Some t -> t
          | None -> scalar Tint
        in
        (* Also the environment after the loop, as [body_env] would
           compute it. *)
        let loop_env =
          stable_loop_env prog ((v, t0) :: List.remove_assoc v env) body
        in
        ( For
            ( v,
              fuse_in prog env init,
              fuse_in prog loop_env cond,
              fuse_in prog loop_env step,
              fuse_stmts prog loop_env body ),
          loop_env )
    in
    s' :: fuse_stmts prog env' rest

(* ------------------------------------------------------------------ *)
(* Cross-statement with-loop folding: a variable bound to a            *)
(* full-partition genarray with-loop, whose every later use is an      *)
(* indexed read v[ix] or a shape(v) query, gets its body substituted   *)
(* at the use sites.  The definition stays; DCE removes it once dead.  *)
(* Uses under [for] constructs are excluded (the producer would be     *)
(* recomputed every iteration).                                        *)
(* ------------------------------------------------------------------ *)

let max_forward_body = 80

(* Every occurrence of [v] in [e] must be the array of an Idx node or
   the argument of shape().  [ok_subst] additionally rejects sites
   under a with-binder that captures a free variable of the producer
   body. *)
let rec uses_only_indexed v e =
  match e with
  | Var x -> x <> v
  | Idx (Var _, i) -> uses_only_indexed v i
  | Call ("shape", [ Var _ ]) -> true
  | Dbl _ | Int _ | Bool _ -> true
  | Vec es -> List.for_all (uses_only_indexed v) es
  | Binop (_, a, b) -> uses_only_indexed v a && uses_only_indexed v b
  | Unop (_, a) -> uses_only_indexed v a
  | Cond (c, a, b) ->
    uses_only_indexed v c && uses_only_indexed v a && uses_only_indexed v b
  | Call (_, es) -> List.for_all (uses_only_indexed v) es
  | Idx (a, i) -> uses_only_indexed v a && uses_only_indexed v i
  | With w ->
    uses_only_indexed v w.lb && uses_only_indexed v w.ub
    && uses_only_indexed v w.body
    && (match w.gen with
        | Genarray (s, d) ->
          uses_only_indexed v s && uses_only_indexed v d
        | Modarray a -> uses_only_indexed v a
        | Fold (_, n) -> uses_only_indexed v n)

let rec stmt_reads_var v s =
  let reads e = List.mem v (free_vars e) in
  match s with
  | Assign (_, e) | Return e -> reads e
  | If (c, a, b) ->
    reads c
    || List.exists (stmt_reads_var v) a
    || List.exists (stmt_reads_var v) b
  | For (_, i, c, st, body) ->
    reads i || reads c || reads st || List.exists (stmt_reads_var v) body

let rec stmt_uses_only_indexed v s =
  match s with
  | Assign (_, e) | Return e -> uses_only_indexed v e
  | If (c, a, b) ->
    uses_only_indexed v c
    && List.for_all (stmt_uses_only_indexed v) a
    && List.for_all (stmt_uses_only_indexed v) b
  | For _ ->
    (* No reads of v anywhere in a loop: substituting there would
       recompute producer elements every iteration. *)
    not (stmt_reads_var v s)

(* Replace v[ix] by body{ivar := ix} and shape(v) by the genarray
   shape.  Binders that would capture free variables of the body make
   the site ineligible; we simply leave it unchanged (the definition
   stays live then). *)
let rec subst_uses v (w : wloop) shp e =
  let body_fv = free_vars w.body in
  let rec go e =
    match e with
    | Idx (Var x, ix) when x = v -> subst [ (w.ivar, go ix) ] w.body
    | Call ("shape", [ Var x ]) when x = v -> shp
    | Dbl _ | Int _ | Bool _ | Var _ -> e
    | Vec es -> Vec (List.map go es)
    | Binop (op, a, b) -> Binop (op, go a, go b)
    | Unop (op, a) -> Unop (op, go a)
    | Cond (c, a, b) -> Cond (go c, go a, go b)
    | Call (f, es) -> Call (f, List.map go es)
    | Idx (a, i) -> Idx (go a, go i)
    | With wc ->
      let wc =
        if List.mem wc.ivar body_fv then
          rename_ivar (fresh_name wc.ivar) wc
        else wc
      in
      With
        { wc with
          lb = go wc.lb;
          ub = go wc.ub;
          body = go wc.body;
          gen =
            (match wc.gen with
             | Genarray (s, d) -> Genarray (go s, go d)
             | Modarray a -> Modarray (go a)
             | Fold (op, n) -> Fold (op, go n)) }
  in
  go e

and subst_uses_stmt v w shp s =
  match s with
  | Assign (x, e) -> Assign (x, subst_uses v w shp e)
  | Return e -> Return (subst_uses v w shp e)
  | If (c, a, b) ->
    If
      ( subst_uses v w shp c,
        List.map (subst_uses_stmt v w shp) a,
        List.map (subst_uses_stmt v w shp) b )
  | For _ -> s

(* Occurrences of v as a free variable. *)
let rec occurrences v e =
  match e with
  | Var x -> if x = v then 1 else 0
  | Dbl _ | Int _ | Bool _ -> 0
  | Vec es -> List.fold_left (fun a x -> a + occurrences v x) 0 es
  | Binop (_, a, b) -> occurrences v a + occurrences v b
  | Unop (_, a) -> occurrences v a
  | Cond (c, a, b) -> occurrences v c + occurrences v a + occurrences v b
  | Call (_, es) -> List.fold_left (fun a x -> a + occurrences v x) 0 es
  | Idx (a, i) -> occurrences v a + occurrences v i
  | With w ->
    if w.ivar = v then occurrences v w.lb + occurrences v w.ub
    else
      occurrences v w.lb + occurrences v w.ub + occurrences v w.body
      + (match w.gen with
         | Genarray (s, d) -> occurrences v s + occurrences v d
         | Modarray a -> occurrences v a
         | Fold (_, n) -> occurrences v n)

let rec stmt_occurrences v s =
  match s with
  | Assign (_, e) | Return e -> occurrences v e
  | If (c, a, b) ->
    occurrences v c
    + List.fold_left (fun acc s -> acc + stmt_occurrences v s) 0 (a @ b)
  | For (_, i, c, st, body) ->
    occurrences v i + occurrences v c + occurrences v st
    + List.fold_left (fun acc s -> acc + stmt_occurrences v s) 0 body

(* A single use of v as the argument of a whole-array reduction can
   absorb the producer with-loop verbatim (the next optimisation
   cycle then folds it into a fold with-loop). *)
let rec subst_reduction_use v rhs s =
  let rec go e =
    match e with
    | Call (("sum" | "maxval" | "minval") as f, [ Var x ]) when x = v ->
      Call (f, [ rhs ])
    | Dbl _ | Int _ | Bool _ | Var _ -> e
    | Vec es -> Vec (List.map go es)
    | Binop (op, a, b) -> Binop (op, go a, go b)
    | Unop (op, a) -> Unop (op, go a)
    | Cond (c, a, b) -> Cond (go c, go a, go b)
    | Call (f, es) -> Call (f, List.map go es)
    | Idx (a, i) -> Idx (go a, go i)
    | With w ->
      With
        { w with
          lb = go w.lb;
          ub = go w.ub;
          body = go w.body;
          gen =
            (match w.gen with
             | Genarray (s, d) -> Genarray (go s, go d)
             | Modarray a -> Modarray (go a)
             | Fold (op, n) -> Fold (op, go n)) }
  in
  match s with
  | Assign (x, e) -> Assign (x, go e)
  | Return e -> Return (go e)
  | If (c, a, b) ->
    If
      ( go c,
        List.map (subst_reduction_use v rhs) a,
        List.map (subst_reduction_use v rhs) b )
  | For _ -> s

(* Is the single read of v of the form red(v) outside any loop? *)
let rec single_use_is_reduction v s =
  let rec expr_has e =
    match e with
    | Call (("sum" | "maxval" | "minval"), [ Var x ]) when x = v -> true
    | Dbl _ | Int _ | Bool _ | Var _ -> false
    | Vec es -> List.exists expr_has es
    | Binop (_, a, b) -> expr_has a || expr_has b
    | Unop (_, a) -> expr_has a
    | Cond (c, a, b) -> expr_has c || expr_has a || expr_has b
    | Call (_, es) -> List.exists expr_has es
    | Idx (a, i) -> expr_has a || expr_has i
    | With w ->
      expr_has w.lb || expr_has w.ub || expr_has w.body
      || (match w.gen with
          | Genarray (s, d) -> expr_has s || expr_has d
          | Modarray a -> expr_has a
          | Fold (_, n) -> expr_has n)
  in
  match s with
  | Assign (_, e) | Return e -> expr_has e
  | If (c, a, b) ->
    expr_has c || List.exists (single_use_is_reduction v) (a @ b)
  | For _ -> false

(* Folding a producer into a consumer that reads it at several index
   positions duplicates the producer's work per element — the classic
   WLF trap.  Allow multiple read sites only for cheap bodies (a
   clamped array read, an elementwise expression), never for flux-
   sized ones. *)
let max_duplicable_body = 8

let rec forward_stmts stmts =
  match stmts with
  | [] -> []
  | (Assign (v, With w) as def) :: rest
    when full_partition w
         && expr_size w.body <= max_forward_body
         && (let read_sites =
               List.fold_left
                 (fun acc s -> acc + stmt_occurrences v s)
                 0 rest
             in
             read_sites <= 1 || expr_size w.body <= max_duplicable_body)
         && List.for_all (stmt_uses_only_indexed v) rest
         && (* a later rebinding of v would end the region; keep it
               simple and require v assigned once *)
         List.for_all
           (fun s -> match s with Assign (x, _) -> x <> v | _ -> true)
           rest -> (
    match w.gen with
    | Genarray (shp, _) ->
      def :: forward_stmts (List.map (subst_uses_stmt v w shp) rest)
    | Modarray _ | Fold _ -> def :: forward_stmts rest)
  | (Assign (v, (With w as rhs)) as def) :: rest
    when full_partition w
         && expr_size w.body <= max_forward_body
         && List.fold_left (fun a s -> a + stmt_occurrences v s) 0 rest = 1
         && List.exists (single_use_is_reduction v) rest ->
    def :: forward_stmts (List.map (subst_reduction_use v rhs) rest)
  | If (c, a, b) :: rest ->
    If (c, forward_stmts a, forward_stmts b) :: forward_stmts rest
  | For (v, i, c, st, body) :: rest ->
    For (v, i, c, st, forward_stmts body) :: forward_stmts rest
  | s :: rest -> s :: forward_stmts rest

let run prog =
  List.map
    (fun fd ->
      let env = List.map (fun p -> (p.pname, p.pty)) fd.params in
      let body = fuse_stmts prog env fd.fbody in
      let body = forward_stmts body in
      (* A second expression pass immediately folds reductions that
         just absorbed a producer (maxval(with...) -> fold with-loop),
         so CSE cannot undo the forward substitution. *)
      { fd with fbody = fuse_stmts prog env body })
    prog

(* Static whole-array-operation count of a whole program (no type
   info needed beyond "is it an array op node"): counts With nodes and
   array builtins; plain arithmetic is counted when either operand is
   itself an array-op node or a variable (a conservative proxy used
   only for reporting deltas). *)
let array_op_nodes prog =
  let count = ref 0 in
  let rec walk_expr e =
    (match e with
     | With _ -> incr count
     | Call (("drop" | "take" | "genarray_const" | "reshape"), _) ->
       incr count
     | _ -> ());
    match e with
    | Dbl _ | Int _ | Bool _ | Var _ -> ()
    | Vec es -> List.iter walk_expr es
    | Binop (_, a, b) -> walk_expr a; walk_expr b
    | Unop (_, a) -> walk_expr a
    | Cond (c, a, b) -> walk_expr c; walk_expr a; walk_expr b
    | Call (_, es) -> List.iter walk_expr es
    | Idx (a, i) -> walk_expr a; walk_expr i
    | With w ->
      walk_expr w.lb;
      walk_expr w.ub;
      walk_expr w.body;
      (match w.gen with
       | Genarray (s, d) -> walk_expr s; walk_expr d
       | Modarray a -> walk_expr a
       | Fold (_, n) -> walk_expr n)
  in
  let rec walk_stmt s =
    match s with
    | Assign (_, e) | Return e -> walk_expr e
    | If (c, a, b) ->
      walk_expr c;
      List.iter walk_stmt a;
      List.iter walk_stmt b
    | For (_, i, c, st, b) ->
      walk_expr i;
      walk_expr c;
      walk_expr st;
      List.iter walk_stmt b
  in
  List.iter (fun fd -> List.iter walk_stmt fd.fbody) prog;
  !count

let fused_count before after = array_op_nodes before - array_op_nodes after
