open Ast

let max_clones_per_function = 4

(* Narrow the callee's parameters to the call site's argument types.
   Only the shape component narrows, and only when the argument is
   strictly more precise; int-to-double promoted scalars keep the
   declared parameter. *)
let narrowed_params fd arg_tys =
  List.map2
    (fun p a ->
      if
        a.base = p.pty.base
        && Types.sub_shape a.shape p.pty.shape
        && a.shape <> p.pty.shape
      then { p with pty = { p.pty with shape = a.shape } }
      else p)
    fd.params arg_tys

let signature params = List.map (fun p -> p.pty) params

(* ------------------------------------------------------------------ *)
(* Environment-tracked walk over every call site.  [visit] receives    *)
(* the callee name and inferred argument types and returns the name    *)
(* to call instead.                                                    *)
(* ------------------------------------------------------------------ *)

(* Types come from [t], [e]'s annotation in [env] (see
   {!Typecheck.annotate}), so each statement is typed once rather than
   each call's arguments once per call site.  The annotation types the
   original expression; a rewritten subtree that names a fresh clone
   no longer types in [prog] (the clone is not in it yet), so
   [renamed] counts the call sites the walk redirects, and a subtree
   during whose walk it grew is treated as untyped. *)
let rec walk_expr prog env visit renamed e (t : Typecheck.typed) =
  let w = walk_expr prog env visit renamed in
  match (e, t.kids) with
  | (Dbl _ | Int _ | Bool _ | Var _), _ -> e
  | Vec es, ts -> Vec (List.map2 w es ts)
  | Binop (op, a, b), [ ta; tb ] -> Binop (op, w a ta, w b tb)
  | Unop (op, a), [ ta ] -> Unop (op, w a ta)
  | Cond (c, a, b), [ tc; ta; tb ] -> Cond (w c tc, w a ta, w b tb)
  | Idx (a, i), [ ta; ti ] -> Idx (w a ta, w i ti)
  | Call (f, args), targs ->
    let before = !renamed in
    let args = List.map2 w args targs in
    let arg_tys = List.map (fun (k : Typecheck.typed) -> k.ty) targs in
    if !renamed = before && List.for_all Option.is_some arg_tys then begin
      let f' = visit f (List.map Option.get arg_tys) in
      if not (String.equal f' f) then incr renamed;
      Call (f', args)
    end
    else Call (f, args)
  | With wl, tlb :: tub :: tgen ->
    let rank =
      match tlb.ty with
      | Some { shape = Aks [ n ]; _ } -> Aks [ n ]
      | _ -> Akd 1
    in
    let ivt = { base = Tint; shape = rank } in
    let env' = (wl.ivar, ivt) :: env in
    (* The body's annotation serves when the checker bound the index
       variable to the same type. *)
    let tbody =
      match t.inner with
      | Some (ivt', tbody) when ivt' = ivt -> tbody
      | _ -> Typecheck.annotate prog env' wl.body
    in
    With
      { wl with
        lb = w wl.lb tlb;
        ub = w wl.ub tub;
        body = walk_expr prog env' visit renamed wl.body tbody;
        gen =
          (match (wl.gen, tgen) with
           | Genarray (s, d), [ ts; td ] -> Genarray (w s ts, w d td)
           | Modarray a, [ ta ] -> Modarray (w a ta)
           | Fold (op, n), [ tn ] -> Fold (op, w n tn)
           | _ -> assert false) }
  | _ -> assert false

(* Walk a whole expression typed in [env]; also returns the type that
   re-typing the rewritten expression in [prog] would give. *)
(* Only a call with one candidate, not marked inline, can be
   redirected; an expression without one walks to itself, so it needs
   no annotation, and an assignment of one only its own type. *)
let rec has_candidate prog e =
  (match e with
   | Call (f, _) -> (
     match Overload.candidates prog f with
     | [ fd ] -> not fd.finline
     | _ -> false)
   | With w -> has_candidate prog w.body
   | _ -> false)
  || List.exists (has_candidate prog) (Typecheck.children e)

let walk_typed prog env visit renamed e =
  if has_candidate prog e then begin
    let t = Typecheck.annotate prog env e in
    let before = !renamed in
    let e' = walk_expr prog env visit renamed e t in
    (e', if !renamed = before then t.ty else None)
  end
  else
    (e, try Some (Typecheck.infer_expr prog env e) with Typecheck.Error _ -> None)

let walk_in prog env visit renamed e =
  if has_candidate prog e then
    walk_expr prog env visit renamed e (Typecheck.annotate prog env e)
  else e

let rec walk_stmts prog env visit renamed = function
  | [] -> []
  | Assign (v, e) :: rest ->
    let e', ty = walk_typed prog env visit renamed e in
    let env' =
      match ty with
      | Some t -> (v, t) :: List.remove_assoc v env
      | None -> List.remove_assoc v env
    in
    Assign (v, e') :: walk_stmts prog env' visit renamed rest
  | Return e :: rest ->
    Return (walk_in prog env visit renamed e)
    :: walk_stmts prog env visit renamed rest
  | If (c, a, b) :: rest ->
    (* Branch environments are joined conservatively by dropping
       branch-local variables for the continuation. *)
    If
      ( walk_in prog env visit renamed c,
        walk_stmts prog env visit renamed a,
        walk_stmts prog env visit renamed b )
    :: walk_stmts prog env visit renamed rest
  | For (v, i, c, s, body) :: rest ->
    (* Loop-carried shapes may generalise; keep only the declared
       knowledge (drop assigned variables) inside and after. *)
    let assigned =
      List.filter_map
        (function Assign (x, _) -> Some x | _ -> None)
        body
    in
    let env_in =
      (v, scalar Tint)
      :: List.filter (fun (x, _) -> not (List.mem x assigned)) env
    in
    For
      ( v,
        walk_in prog env visit renamed i,
        walk_in prog env_in visit renamed c,
        walk_in prog env_in visit renamed s,
        walk_stmts prog env_in visit renamed body )
    :: walk_stmts prog env_in visit renamed rest

(* ------------------------------------------------------------------ *)

let run prog =
  (* clone table: (fname, narrowed signature) -> clone name *)
  let clones = Hashtbl.create 16 in
  let clone_count = Hashtbl.create 16 in
  let new_funs = ref [] in
  let visit f arg_tys =
    match Overload.candidates prog f with
    | [ fd ]
      when (not fd.finline)
           && List.length fd.params = List.length arg_tys ->
      let params' = narrowed_params fd arg_tys in
      if signature params' = signature fd.params then f
      else begin
        let key = (f, signature params') in
        match Hashtbl.find_opt clones key with
        | Some clone -> clone
        | None ->
          let used = try Hashtbl.find clone_count f with Not_found -> 0 in
          if used >= max_clones_per_function then f
          else begin
            let clone_name = fresh_name (f ^ "_spec") in
            let clone = { fd with fname = clone_name; params = params' } in
            (* Validate: the body must still type under the narrowed
               parameters. *)
            let candidate = prog @ [ clone ] in
            match Typecheck.check_fun candidate clone with
            | () ->
              Hashtbl.add clones key clone_name;
              Hashtbl.replace clone_count f (used + 1);
              new_funs := clone :: !new_funs;
              clone_name
            | exception Typecheck.Error _ -> f
          end
      end
    | _ -> f
  in
  let renamed = ref 0 in
  let rewritten =
    List.map
      (fun fd ->
        let env = List.map (fun p -> (p.pname, p.pty)) fd.params in
        { fd with fbody = walk_stmts prog env visit renamed fd.fbody })
      prog
  in
  rewritten @ List.rev !new_funs
