open Ast

(* Is the expression worth sharing?  Variables and literals are not. *)
let worthwhile = function
  | Var _ | Dbl _ | Int _ | Bool _ -> false
  | e -> expr_size e >= 3

(* Known expressions, each with the variable that holds it and its free
   variables, keyed by the expression and its structural hash.  [add]
   shadows and [find_opt] returns the newest binding, as a scan of a
   list built by consing would. *)
module Known = Hashtbl.Make (struct
  type t = int * expr

  let equal (h, a) (h', b) = h = h' && equal_expr a b
  let hash (h, _) = h
end)

(* Structural hashes, built bottom-up: a node mixes its constructor and
   payload into its children's hashes, so each node costs constant
   time instead of a walk of its subtree.  Structurally equal
   expressions hash equal ([Hashtbl.hash] maps -0.0 and 0.0 alike). *)
let mix h k = ((h * 65599) + k) land max_int

let hash_leaf = function
  | Dbl x -> mix 1 (Hashtbl.hash x)
  | Int n -> mix 2 n
  | Bool b -> mix 3 (Bool.to_int b)
  | Var v -> mix 4 (Hashtbl.hash v)
  | _ -> invalid_arg "Opt_cse.hash_leaf"

(* [e] with every occurrence of a known expression replaced by its
   variable, and the result's hash.  Children are replaced before
   their parent, so inner replacements happen first, which keeps equal
   subtrees canonical. *)
let rec replace table e =
  let e, h =
    match e with
    | Dbl _ | Int _ | Bool _ | Var _ -> (e, hash_leaf e)
    | Vec es ->
      let es, h = replace_list table 5 es in
      (Vec es, h)
    | Binop (op, a, b) ->
      let a, ha = replace table a in
      let b, hb = replace table b in
      (Binop (op, a, b), mix (mix (mix 6 (Hashtbl.hash op)) ha) hb)
    | Unop (op, a) ->
      let a, ha = replace table a in
      (Unop (op, a), mix (mix 7 (Hashtbl.hash op)) ha)
    | Cond (c, a, b) ->
      let c, hc = replace table c in
      let a, ha = replace table a in
      let b, hb = replace table b in
      (Cond (c, a, b), mix (mix (mix 8 hc) ha) hb)
    | Call (f, es) ->
      let es, h = replace_list table (mix 9 (Hashtbl.hash f)) es in
      (Call (f, es), h)
    | Idx (a, i) ->
      let a, ha = replace table a in
      let i, hi = replace table i in
      (Idx (a, i), mix (mix 10 ha) hi)
    | With w ->
      let lb, hl = replace table w.lb in
      let ub, hu = replace table w.ub in
      let body, hb = replace table w.body in
      let gen, hg =
        match w.gen with
        | Genarray (s, d) ->
          let s, hs = replace table s in
          let d, hd = replace table d in
          (Genarray (s, d), mix (mix 12 hs) hd)
        | Modarray a ->
          let a, ha = replace table a in
          (Modarray a, mix 13 ha)
        | Fold (op, n) ->
          let n, hn = replace table n in
          (Fold (op, n), mix (mix 14 (Hashtbl.hash op)) hn)
      in
      ( With { w with lb; ub; body; gen },
        mix (mix (mix (mix (mix 11 (Hashtbl.hash w.ivar)) hl) hu) hb) hg )
  in
  match Known.find_opt table (h, e) with
  | Some (v, _) -> (Var v, hash_leaf (Var v))
  | None -> (e, h)

and replace_list table h = function
  | [] -> ([], h)
  | e :: es ->
    let e, he = replace table e in
    let es, h = replace_list table (mix h he) es in
    (e :: es, h)

let replace_known table e = fst (replace table e)

let invalidate table v =
  Known.filter_map_inplace
    (fun _ ((var, fv) as known) ->
      if var = v || List.mem v fv then None else Some known)
    table

let rec walk table = function
  | [] -> []
  | Assign (v, e) :: rest ->
    let e', h = replace table e in
    invalidate table v;
    (if worthwhile e' then
       let fv = free_vars e' in
       if not (List.mem v fv) then Known.add table (h, e') (v, fv));
    let rest = walk table rest in
    Assign (v, e') :: rest
  | Return e :: rest ->
    let e' = replace_known table e in
    Return e' :: walk table rest
  | If (c, a, b) :: rest ->
    (* Branches start from the current table but do not export it. *)
    let c' = replace_known table c in
    let a' = walk (Known.copy table) a in
    let b' = walk (Known.copy table) b in
    If (c', a', b') :: walk (Known.create 16) rest
  | For (v, i, c, s, b) :: rest ->
    let i' = replace_known table i in
    For (v, i', c, s, walk (Known.create 16) b)
    :: walk (Known.create 16) rest

let run prog =
  List.map (fun fd -> { fd with fbody = walk (Known.create 16) fd.fbody }) prog
