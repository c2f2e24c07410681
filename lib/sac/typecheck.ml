open Ast

exception Error of string

let err ctx msg = raise (Error (ctx ^ ": " ^ msg))

(* The scalar types, allocated once: the rules return them at almost
   every leaf. *)
let t_double = scalar Tdouble
let t_int = scalar Tint
let t_bool = scalar Tbool

let ivec_ty n =
  match n with
  | Some k -> { base = Tint; shape = Aks [ k ] }
  | None -> { base = Tint; shape = Akd 1 }

let is_ivec t =
  t.base = Tint && (match t.shape with Aks [ _ ] | Akd 1 -> true | _ -> false)

let ivec_length t =
  match t.shape with Aks [ n ] -> Some n | _ -> None

(* Accept an argument for a parameter: subtyping plus scalar int ->
   double promotion. *)
let arg_ok = Overload.arg_ok

(* Variable lookup with a string test, not [List.assoc_opt]'s
   polymorphic compare: this runs at every variable the optimiser
   types. *)
let rec lookup v = function
  | [] -> None
  | (x, t) :: rest -> if String.equal x v then Some t else lookup v rest

(* One node's rule.  Children are typed through [sub env child], so
   the same rule serves the plain recursive inference and
   {!annotate}. *)
let rec node sub ctx prog env e =
  match e with
  | Dbl _ -> t_double
  | Int _ -> t_int
  | Bool _ -> t_bool
  | Var v -> (
    match lookup v env with
    | Some t -> t
    | None -> err ctx ("unbound variable " ^ v))
  | Vec [] -> err ctx "empty vector literal"
  | Vec es ->
    let ts = List.map (sub env) es in
    List.iter
      (fun t ->
        if not (Types.is_scalar t) then
          err ctx "vector literals take scalar elements";
        if t.base = Tbool then err ctx "vector literals cannot hold booleans")
      ts;
    let base =
      if List.exists (fun t -> t.base = Tdouble) ts then Tdouble else Tint
    in
    { base; shape = Aks [ List.length ts ] }
  | Binop (op, a, b) -> infer_binop sub ctx env op a b
  | Unop (Neg, a) -> (
    let t = sub env a in
    match t.base with
    | Tdouble | Tint -> t
    | Tbool -> err ctx "cannot negate a boolean")
  | Unop (Not, a) ->
    let t = sub env a in
    if t = t_bool then t else err ctx "! expects a boolean"
  | Cond (c, a, b) ->
    let tc = sub env c in
    if tc <> t_bool then err ctx "condition must be a boolean";
    let ta = sub env a and tb = sub env b in
    if ta.base <> tb.base then (
      match Types.promote ta tb with
      | Some t -> t
      | None -> err ctx "branches of ?: have different types")
    else { base = ta.base; shape = Types.join_shape ta.shape tb.shape }
  | Call (f, args) -> infer_call sub ctx prog env f args
  | Idx (a, i) -> (
    let ta = sub env a and ti = sub env i in
    match ta.base with
    | Tdouble -> (
      if ti.base = Tint && Types.is_scalar ti then begin
        (* a[i] sugar on rank-1 arrays *)
        match Types.rank_of ta.shape with
        | Some 1 | None -> t_double
        | Some _ -> err ctx "scalar index on a higher-rank array"
      end
      else if is_ivec ti then begin
        match (Types.rank_of ta.shape, ivec_length ti) with
        | Some r, Some k when r <> k ->
          err ctx "index vector rank does not match array rank"
        | _ -> t_double
      end
      else err ctx "index must be an int vector")
    | Tint ->
      if is_ivec ta && ti.base = Tint then t_int
      else err ctx "bad indexing operands"
    | Tbool -> err ctx "cannot index a boolean")
  | With w -> infer_with sub ctx env w

and infer_binop sub ctx env op a b =
  let ta = sub env a and tb = sub env b in
  match op with
  | Add | Sub | Mul | Div | Mod -> (
    if ta.base = Tbool || tb.base = Tbool then
      err ctx "arithmetic on booleans";
    match (Types.is_scalar ta, Types.is_scalar tb) with
    | true, true -> (
      match Types.promote ta tb with
      | Some t -> t
      | None -> err ctx "bad scalar arithmetic")
    | false, true ->
      if tb.base = Tbool then err ctx "arithmetic on booleans" else ta
    | true, false -> tb
    | false, false -> (
      if ta.base <> tb.base then
        err ctx "elementwise arithmetic on arrays of different base types";
      match Types.meet_shape ta.shape tb.shape with
      | Some s -> { base = ta.base; shape = s }
      | None -> err ctx "elementwise arithmetic on incompatible shapes"))
  | Eq | Ne ->
    if ta.base <> tb.base then err ctx "comparison of different base types"
    else t_bool
  | Lt | Le | Gt | Ge ->
    if
      Types.is_scalar ta && Types.is_scalar tb
      && ta.base <> Tbool && tb.base <> Tbool
    then t_bool
    else err ctx "ordering comparisons need numeric scalars"
  | And | Or ->
    if ta = t_bool && tb = t_bool then t_bool
    else err ctx "&& and || expect booleans"

and builtin_sig sub ctx env name args =
  let ts = List.map (sub env) args in
  let arity n =
    if List.length ts <> n then
      err ctx (Printf.sprintf "%s expects %d arguments" name n)
  in
  let darr t = t.base = Tdouble in
  match (name, ts) with
  | "dim", [ _ ] -> t_int
  | "shape", [ t ] ->
    ivec_ty (Types.rank_of t.shape)
  | ("drop" | "take"), [ off; arr ] when is_ivec off && darr arr ->
    (* Extents change, rank survives. *)
    { base = Tdouble;
      shape =
        (match Types.rank_of arr.shape with
         | Some r -> Akd r
         | None -> Aud) }
  | ("drop" | "take"), [ k; v ] when k = t_int && is_ivec v ->
    ivec_ty None
  | "sum", [ t ] when is_ivec t -> t_int
  | ("sum" | "maxval" | "minval"), [ t ] when darr t || t = t_int ->
    t_double
  | ("fabs" | "sqrt" | "exp" | "log"), [ t ]
    when t.base <> Tbool ->
    arity 1;
    if Types.is_scalar t then t_double else { t with base = Tdouble }
  | "abs", [ t ] when t.base <> Tbool -> t
  | ("min" | "max"), [ a; b ] -> (
    match (Types.is_scalar a, Types.is_scalar b) with
    | true, true -> (
      match Types.promote a b with
      | Some t -> t
      | None -> err ctx (name ^ ": bad operands"))
    | false, false when a.base = Tdouble && b.base = Tdouble -> (
      match Types.meet_shape a.shape b.shape with
      | Some s -> { base = Tdouble; shape = s }
      | None -> err ctx (name ^ ": incompatible shapes"))
    | _ -> err ctx (name ^ ": bad operands"))
  | "zeros", [ t ] when t = t_int -> ivec_ty None
  | "reverse", [ t ] when is_ivec t -> t
  | "reverse", [ t ]
    when t.base = Tdouble && Types.rank_of t.shape = Some 1 ->
    t
  | "genarray_const", [ s; v ]
    when is_ivec s && Types.is_scalar v && v.base <> Tbool ->
    { base = Tdouble;
      shape =
        (match ivec_length s with Some k -> Akd k | None -> Aud) }
  | "reshape", [ s; arr ] when is_ivec s && darr arr ->
    { base = Tdouble;
      shape = (match ivec_length s with Some k -> Akd k | None -> Aud) }
  | "modarray_set", [ arr; iv; v ]
    when darr arr && is_ivec iv && Types.is_scalar v && v.base <> Tbool ->
    arr
  | "pow", [ a; b ]
    when Types.is_scalar a && Types.is_scalar b
         && a.base <> Tbool && b.base <> Tbool ->
    t_double
  | _ ->
    err ctx
      (Printf.sprintf "bad arguments to builtin %s (%s)" name
         (String.concat ", " (List.map Types.to_string ts)))

and infer_call sub ctx prog env f args =
  match lookup_fun prog f with
  | Some _ -> (
    let arg_tys = List.map (sub env) args in
    match Overload.resolve prog f arg_tys with
    | Ok fd -> fd.ret
    | Error msg -> err ctx msg)
  | None ->
    if List.mem f Builtins.names then builtin_sig sub ctx env f args
    else err ctx ("unknown function " ^ f)

and infer_with sub ctx env w =
  let tlb = sub env w.lb and tub = sub env w.ub in
  if not (is_ivec tlb && is_ivec tub) then
    err ctx "with-loop bounds must be int vectors";
  let rank =
    match (ivec_length tlb, ivec_length tub) with
    | Some a, Some b ->
      if a <> b then err ctx "with-loop bounds have different lengths";
      Some a
    | Some a, None | None, Some a -> Some a
    | None, None -> None
  in
  let env' = (w.ivar, ivec_ty rank) :: env in
  let tbody = sub env' w.body in
  if not (Types.is_scalar tbody && tbody.base <> Tbool) then
    err ctx "with-loop body must produce a numeric scalar";
  match w.gen with
  | Genarray (s, d) -> (
    let ts = sub env s in
    if not (is_ivec ts) then err ctx "genarray shape must be an int vector";
    let td = sub env d in
    if not (Types.is_scalar td && td.base <> Tbool) then
      err ctx "genarray default must be a numeric scalar";
    (* A literal shape gives full AKS information. *)
    match s with
    | Vec es when List.for_all (function Int _ -> true | _ -> false) es ->
      { base = Tdouble;
        shape = Aks (List.map (function Int n -> n | _ -> 0) es) }
    | _ -> (
      match (ivec_length ts, rank) with
      | Some k, _ | None, Some k -> { base = Tdouble; shape = Akd k }
      | None, None -> { base = Tdouble; shape = Aud }))
  | Modarray a ->
    let ta = sub env a in
    if ta.base <> Tdouble then err ctx "modarray source must be a double array";
    ta
  | Fold (_, n) ->
    let tn = sub env n in
    if not (Types.is_scalar tn && tn.base <> Tbool) then
      err ctx "fold neutral must be a numeric scalar";
    t_double

let infer ctx prog env e =
  let rec sub env e = node sub ctx prog env e in
  sub env e

let infer_expr prog env e = infer "<expr>" prog env e

type typed = {
  ty : ty option;
  kids : typed list;
  inner : (ty * typed) option;
}

let children e =
  match e with
  | Dbl _ | Int _ | Bool _ | Var _ -> []
  | Vec es | Call (_, es) -> es
  | Binop (_, a, b) | Idx (a, b) -> [ a; b ]
  | Unop (_, a) -> [ a ]
  | Cond (c, a, b) -> [ c; a; b ]
  | With w -> (
    w.lb :: w.ub
    :: (match w.gen with
        | Genarray (s, d) -> [ s; d ]
        | Modarray a | Fold (_, a) -> [ a ]))

(* The annotation of child [c], found by identity among the node's
   [children] [cs] and their annotations [ks]. *)
let rec kid_of c cs ks =
  match (cs, ks) with
  | c' :: cs, k :: ks -> if c' == c then k else kid_of c cs ks
  | _ -> invalid_arg "Typecheck.annotate: not a child"

(* Literals type the same everywhere, so their annotations are
   shared. *)
let leaf t = { ty = Some t; kids = []; inner = None }
let dbl_leaf = leaf t_double
let int_leaf = leaf t_int
let bool_leaf = leaf t_bool

(* Children first, then the node's rule once, reading their types.  A
   with-loop body is typed where the rule asks for it, in the loop's
   environment: one binding (the index variable) on top of [env]. *)
let rec annotate prog env e =
  let rec go e =
    match e with
    | Dbl _ -> dbl_leaf
    | Int _ -> int_leaf
    | Bool _ -> bool_leaf
    | Var v -> { ty = lookup v env; kids = []; inner = None }
    | _ ->
      let cs = children e in
      let ks = List.map go cs in
      let inner = ref None in
      let sub env' c =
        let k =
          match env' with
          | (_, ivt) :: rest when rest == env ->
            let k = annotate prog env' c in
            inner := Some (ivt, k);
            k
          | _ -> kid_of c cs ks
        in
        match k.ty with Some t -> t | None -> raise (Error "ill-typed operand")
      in
      let ty = try Some (node sub "<expr>" prog env e) with Error _ -> None in
      { ty; kids = ks; inner = !inner }
  in
  go e

(* Conservative: does this statement list return on every path? *)
let rec always_returns stmts =
  List.exists
    (function
      | Return _ -> true
      | If (_, a, b) -> always_returns a && always_returns b
      | Assign _ | For _ -> false)
    stmts

let rec check_stmts ctx prog env = function
  | [] -> env
  | s :: rest ->
    let env' = check_stmt ctx prog env s in
    check_stmts ctx prog env' rest

and check_stmt ctx prog env = function
  | Assign (v, e) ->
    let t = infer ctx prog env e in
    (v, t) :: List.remove_assoc v env
  | Return e ->
    let t = infer ctx prog env e in
    let ret = List.assoc "$ret" env in
    if not (arg_ok t ret) then
      err ctx
        (Printf.sprintf "return type %s is not a subtype of declared %s"
           (Types.to_string t) (Types.to_string ret));
    env
  | If (c, then_, else_) ->
    let tc = infer ctx prog env c in
    if tc <> t_bool then err ctx "if condition must be a boolean";
    let env_t = check_stmts ctx prog env then_
    and env_e = check_stmts ctx prog env else_ in
    (* Keep variables visible on both paths, joining their types. *)
    List.filter_map
      (fun (v, t1) ->
        match List.assoc_opt v env_e with
        | Some t2 when t1.base = t2.base ->
          Some (v, { base = t1.base;
                     shape = Types.join_shape t1.shape t2.shape })
        | Some _ | None -> None)
      env_t
  | For (v, init, cond, step, body) ->
    let t0 = infer ctx prog env init in
    (* Iterate to a fixpoint of the recurrence variable types (the
       loop body may generalise shapes). *)
    let rec stabilise env_loop iters =
      let tc = infer ctx prog env_loop cond in
      if tc <> t_bool then err ctx "for condition must be a boolean";
      let env_body = check_stmts ctx prog env_loop body in
      let tstep = infer ctx prog env_body step in
      if tstep.base <> t0.base then
        err ctx ("for-loop index " ^ v ^ " changes base type");
      let joined =
        List.filter_map
          (fun (name, t1) ->
            match List.assoc_opt name env_body with
            | Some t2 when t1.base = t2.base ->
              Some
                (name,
                 { base = t1.base;
                   shape = Types.join_shape t1.shape t2.shape })
            | Some _ | None -> if name = "$ret" then Some (name, t1) else None)
          env_loop
      in
      if joined = env_loop || iters > 4 then joined
      else stabilise joined (iters + 1)
    in
    stabilise ((v, t0) :: List.remove_assoc v env) 0

let check_fun prog fd =
  let ctx = "function " ^ fd.fname in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.pname then
        err ctx ("duplicate parameter " ^ p.pname);
      Hashtbl.add seen p.pname ())
    fd.params;
  let env =
    ("$ret", fd.ret) :: List.map (fun p -> (p.pname, p.pty)) fd.params
  in
  ignore (check_stmts ctx prog env fd.fbody);
  if not (always_returns fd.fbody) then
    err ctx "not all paths end in a return"

let check_program prog =
  (* Overloads may share a name; exact signature duplicates and
     builtin shadowing are rejected. *)
  List.iteri
    (fun i fd ->
      if List.mem fd.fname Builtins.names then
        raise (Error ("function redefines builtin: " ^ fd.fname));
      List.iteri
        (fun j other ->
          if
            j < i && other.fname = fd.fname
            && Overload.same_signature fd other
          then
            raise
              (Error
                 ("duplicate definition of " ^ fd.fname
                  ^ " with an identical signature")))
        prog)
    prog;
  List.iter (check_fun prog) prog
