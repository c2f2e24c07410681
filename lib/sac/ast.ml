type base_ty = Tdouble | Tint | Tbool

type shape_info = Aks of int list | Akd of int | Aud

type ty = { base : base_ty; shape : shape_info }

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type foldop = Fsum | Fprod | Fmax | Fmin

type withgen =
  | Genarray of expr * expr
  | Modarray of expr
  | Fold of foldop * expr

and expr =
  | Dbl of float
  | Int of int
  | Bool of bool
  | Var of string
  | Vec of expr list
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Cond of expr * expr * expr
  | Call of string * expr list
  | Idx of expr * expr
  | With of wloop

and wloop = {
  ivar : string;
  lb : expr;
  ub : expr;
  body : expr;
  gen : withgen;
}

type stmt =
  | Assign of string * expr
  | If of expr * stmt list * stmt list
  | For of string * expr * expr * expr * stmt list
  | Return of expr

type param = { pname : string; pty : ty }

type fundef = {
  fname : string;
  ret : ty;
  params : param list;
  fbody : stmt list;
  finline : bool;
}

type program = fundef list

let scalar base = { base; shape = Aks [] }
let vec_ty base n = { base; shape = Aks [ n ] }

let lookup_fun prog name = List.find_opt (fun f -> f.fname = name) prog

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">"
  | Ge -> ">=" | And -> "&&" | Or -> "||"

let foldop_name = function
  | Fsum -> "+" | Fprod -> "*" | Fmax -> "max" | Fmin -> "min"

let equal_expr (a : expr) (b : expr) = a = b

(* One counter per domain, so compiles on different domains never
   share it; [restart_fresh_names] starts each compile's sequence. *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_name prefix =
  let c = Domain.DLS.get counter in
  incr c;
  Printf.sprintf "%s$%d" prefix !c

(* The numeric suffix after the last '$' of a generated name. *)
let fresh_suffix name =
  match String.rindex_opt name '$' with
  | None -> 0
  | Some k ->
    Option.value ~default:0
      (int_of_string_opt (String.sub name (k + 1) (String.length name - k - 1)))

let rec max_suffix_expr m e =
  match e with
  | Dbl _ | Int _ | Bool _ -> m
  | Var v -> max m (fresh_suffix v)
  | Vec es -> List.fold_left max_suffix_expr m es
  | Binop (_, a, b) | Idx (a, b) -> max_suffix_expr (max_suffix_expr m a) b
  | Unop (_, a) -> max_suffix_expr m a
  | Cond (c, a, b) ->
    max_suffix_expr (max_suffix_expr (max_suffix_expr m c) a) b
  | Call (f, es) -> List.fold_left max_suffix_expr (max m (fresh_suffix f)) es
  | With w ->
    let m = max m (fresh_suffix w.ivar) in
    let m = List.fold_left max_suffix_expr m [ w.lb; w.ub; w.body ] in
    (match w.gen with
     | Genarray (s, d) -> max_suffix_expr (max_suffix_expr m s) d
     | Modarray a | Fold (_, a) -> max_suffix_expr m a)

let rec max_suffix_stmt m s =
  match s with
  | Assign (v, e) -> max_suffix_expr (max m (fresh_suffix v)) e
  | Return e -> max_suffix_expr m e
  | If (c, a, b) ->
    List.fold_left max_suffix_stmt
      (List.fold_left max_suffix_stmt (max_suffix_expr m c) a)
      b
  | For (v, i, c, st, body) ->
    List.fold_left max_suffix_stmt
      (List.fold_left max_suffix_expr (max m (fresh_suffix v)) [ i; c; st ])
      body

let restart_fresh_names prog =
  let m =
    List.fold_left
      (fun m fd ->
        let m = max m (fresh_suffix fd.fname) in
        let m =
          List.fold_left (fun m p -> max m (fresh_suffix p.pname)) m fd.params
        in
        List.fold_left max_suffix_stmt m fd.fbody)
      0 prog
  in
  Domain.DLS.get counter := m

let rec free_vars_acc bound acc e =
  match e with
  | Dbl _ | Int _ | Bool _ -> acc
  | Var v -> if List.mem v bound || List.mem v acc then acc else v :: acc
  | Vec es -> List.fold_left (free_vars_acc bound) acc es
  | Binop (_, a, b) -> free_vars_acc bound (free_vars_acc bound acc a) b
  | Unop (_, a) -> free_vars_acc bound acc a
  | Cond (c, a, b) ->
    free_vars_acc bound (free_vars_acc bound (free_vars_acc bound acc c) a) b
  | Call (_, es) -> List.fold_left (free_vars_acc bound) acc es
  | Idx (a, i) -> free_vars_acc bound (free_vars_acc bound acc a) i
  | With w ->
    let acc = free_vars_acc bound acc w.lb in
    let acc = free_vars_acc bound acc w.ub in
    let inner = w.ivar :: bound in
    let acc = free_vars_acc inner acc w.body in
    (match w.gen with
     | Genarray (s, d) ->
       free_vars_acc bound (free_vars_acc bound acc s) d
     | Modarray a -> free_vars_acc bound acc a
     | Fold (_, n) -> free_vars_acc bound acc n)

let free_vars e = List.rev (free_vars_acc [] [] e)

(* [List.assoc_opt] with a string test instead of polymorphic
   compare. *)
let rec assoc_var v = function
  | [] -> None
  | (x, r) :: rest -> if String.equal x v then Some r else assoc_var v rest

let rec subst su e =
  match e with
  | Dbl _ | Int _ | Bool _ -> e
  | _ when su = [] -> e
  | Var v -> (match assoc_var v su with Some r -> r | None -> e)
  | Vec es -> Vec (List.map (subst su) es)
  | Binop (op, a, b) -> Binop (op, subst su a, subst su b)
  | Unop (op, a) -> Unop (op, subst su a)
  | Cond (c, a, b) -> Cond (subst su c, subst su a, subst su b)
  | Call (f, es) -> Call (f, List.map (subst su) es)
  | Idx (a, i) -> Idx (subst su a, subst su i)
  | With w ->
    let su' = List.filter (fun (v, _) -> v <> w.ivar) su in
    (* Rename the binder if a substituted expression mentions it. *)
    let captures =
      List.exists (fun (_, r) -> List.mem w.ivar (free_vars r)) su'
    in
    let w =
      if captures then rename_ivar (fresh_name w.ivar) w else w
    in
    let su' = List.filter (fun (v, _) -> v <> w.ivar) su in
    With
      { w with
        lb = subst su w.lb;
        ub = subst su w.ub;
        body = subst su' w.body;
        gen =
          (match w.gen with
           | Genarray (s, d) -> Genarray (subst su s, subst su d)
           | Modarray a -> Modarray (subst su a)
           | Fold (op, n) -> Fold (op, subst su n)) }

and rename_ivar fresh w =
  { w with ivar = fresh; body = subst [ (w.ivar, Var fresh) ] w.body }

let rec expr_size e =
  match e with
  | Dbl _ | Int _ | Bool _ | Var _ -> 1
  | Vec es -> 1 + List.fold_left (fun a x -> a + expr_size x) 0 es
  | Binop (_, a, b) -> 1 + expr_size a + expr_size b
  | Unop (_, a) -> 1 + expr_size a
  | Cond (c, a, b) -> 1 + expr_size c + expr_size a + expr_size b
  | Call (_, es) -> 1 + List.fold_left (fun a x -> a + expr_size x) 0 es
  | Idx (a, i) -> 1 + expr_size a + expr_size i
  | With w ->
    1 + expr_size w.lb + expr_size w.ub + expr_size w.body
    + (match w.gen with
       | Genarray (s, d) -> expr_size s + expr_size d
       | Modarray a -> expr_size a
       | Fold (_, n) -> expr_size n)

let rec map_expr f e =
  let g = map_expr f in
  let e' =
    match e with
    | Dbl _ | Int _ | Bool _ | Var _ -> e
    | Vec es -> Vec (List.map g es)
    | Binop (op, a, b) -> Binop (op, g a, g b)
    | Unop (op, a) -> Unop (op, g a)
    | Cond (c, a, b) -> Cond (g c, g a, g b)
    | Call (fn, es) -> Call (fn, List.map g es)
    | Idx (a, i) -> Idx (g a, g i)
    | With w ->
      With
        { w with
          lb = g w.lb;
          ub = g w.ub;
          body = g w.body;
          gen =
            (match w.gen with
             | Genarray (s, d) -> Genarray (g s, g d)
             | Modarray a -> Modarray (g a)
             | Fold (op, n) -> Fold (op, g n)) }
  in
  f e'
