open Ast

exception Error of string

type state = { toks : Lexer.located array; mutable at : int }

let cur st = st.toks.(st.at)

let fail st msg =
  let { Lexer.tok; line; col } = cur st in
  raise
    (Error
       (Printf.sprintf "%d:%d: %s (found %s)" line col msg
          (Lexer.describe tok)))

let advance st = st.at <- st.at + 1

let accept_punct st s =
  match (cur st).Lexer.tok with
  | Lexer.PUNCT p when p = s ->
    advance st;
    true
  | _ -> false

let expect_punct st s =
  if not (accept_punct st s) then fail st (Printf.sprintf "expected '%s'" s)

let accept_kw st s =
  match (cur st).Lexer.tok with
  | Lexer.KW k when k = s ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match (cur st).Lexer.tok with
  | Lexer.IDENT name ->
    advance st;
    name
  | _ -> fail st "expected identifier"

(* ---------------- types ---------------- *)

let parse_base st =
  if accept_kw st "double" then Tdouble
  else if accept_kw st "int" then Tint
  else if accept_kw st "bool" then Tbool
  else fail st "expected a base type"

let parse_type st =
  let base = parse_base st in
  if not (accept_punct st "[") then { base; shape = Aks [] }
  else if accept_punct st "+" then begin
    expect_punct st "]";
    { base; shape = Aud }
  end
  else if accept_punct st "*" then begin
    expect_punct st "]";
    { base; shape = Aud }
  end
  else begin
    (* A mix of '.' and integers: all-dots means AKD, all-ints AKS.
       Mixed specs degrade to AKD (extents are not tracked then). *)
    let dims = ref [] in
    let rec loop () =
      (match (cur st).Lexer.tok with
       | Lexer.PUNCT "." ->
         advance st;
         dims := None :: !dims
       | Lexer.INTLIT n ->
         advance st;
         dims := Some n :: !dims
       | _ -> fail st "expected '.' or an extent in array type");
      if accept_punct st "," then loop ()
    in
    loop ();
    expect_punct st "]";
    let dims = List.rev !dims in
    let shape =
      if List.for_all Option.is_some dims then
        Aks (List.map Option.get dims)
      else Akd (List.length dims)
    in
    { base; shape }
  end

let looks_like_type st =
  match (cur st).Lexer.tok with
  | Lexer.KW ("double" | "int" | "bool") -> true
  | _ -> false

(* ---------------- expressions ---------------- *)

let rec parse_expr_st st = parse_ternary st

and parse_ternary st =
  let c = parse_or st in
  if accept_punct st "?" then begin
    let a = parse_expr_st st in
    expect_punct st ":";
    let b = parse_expr_st st in
    Cond (c, a, b)
  end
  else c

and parse_or st =
  let rec loop acc =
    if accept_punct st "||" then loop (Binop (Or, acc, parse_and st))
    else acc
  in
  loop (parse_and st)

and parse_and st =
  let rec loop acc =
    if accept_punct st "&&" then loop (Binop (And, acc, parse_cmp st))
    else acc
  in
  loop (parse_cmp st)

and parse_cmp st =
  let a = parse_add st in
  let op =
    match (cur st).Lexer.tok with
    | Lexer.PUNCT "==" -> Some Eq
    | Lexer.PUNCT "!=" -> Some Ne
    | Lexer.PUNCT "<" -> Some Lt
    | Lexer.PUNCT "<=" -> Some Le
    | Lexer.PUNCT ">" -> Some Gt
    | Lexer.PUNCT ">=" -> Some Ge
    | _ -> None
  in
  match op with
  | None -> a
  | Some op ->
    advance st;
    Binop (op, a, parse_add st)

and parse_add st =
  let rec loop acc =
    if accept_punct st "+" then loop (Binop (Add, acc, parse_mul st))
    else if accept_punct st "-" then loop (Binop (Sub, acc, parse_mul st))
    else acc
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop acc =
    if accept_punct st "*" then loop (Binop (Mul, acc, parse_unary st))
    else if accept_punct st "/" then loop (Binop (Div, acc, parse_unary st))
    else if accept_punct st "%" then loop (Binop (Mod, acc, parse_unary st))
    else acc
  in
  loop (parse_unary st)

and parse_unary st =
  if accept_punct st "-" then Unop (Neg, parse_unary st)
  else if accept_punct st "!" then Unop (Not, parse_unary st)
  else parse_postfix st

and parse_postfix st =
  let rec loop acc =
    if accept_punct st "[" then begin
      let i = parse_index_operand st in
      expect_punct st "]";
      loop (Idx (acc, i))
    end
    else acc
  in
  loop (parse_atom st)

(* Inside a[...]: either one expression, or a comma list shorthand
   a[i, j] for a[[i, j]]. *)
and parse_index_operand st =
  let first = parse_expr_st st in
  if accept_punct st "," then begin
    let rest = ref [ first ] in
    let continue = ref true in
    while !continue do
      rest := parse_expr_st st :: !rest;
      if not (accept_punct st ",") then continue := false
    done;
    Vec (List.rev !rest)
  end
  else first

and parse_atom st =
  match (cur st).Lexer.tok with
  | Lexer.DBLLIT x ->
    advance st;
    Dbl x
  | Lexer.INTLIT n ->
    advance st;
    Int n
  | Lexer.KW "true" ->
    advance st;
    Bool true
  | Lexer.KW "false" ->
    advance st;
    Bool false
  | Lexer.KW "with" ->
    advance st;
    parse_with st
  | Lexer.IDENT name ->
    advance st;
    if accept_punct st "(" then begin
      let args = ref [] in
      if not (accept_punct st ")") then begin
        let continue = ref true in
        while !continue do
          args := parse_expr_st st :: !args;
          if accept_punct st ")" then continue := false
          else expect_punct st ","
        done
      end;
      Call (name, List.rev !args)
    end
    else Var name
  | Lexer.PUNCT "{" ->
    advance st;
    parse_set_notation st
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr_st st in
    expect_punct st ")";
    e
  | Lexer.PUNCT "[" ->
    advance st;
    let es = ref [] in
    if not (accept_punct st "]") then begin
      let continue = ref true in
      while !continue do
        es := parse_expr_st st :: !es;
        if accept_punct st "]" then continue := false
        else expect_punct st ","
      done
    end;
    Vec (List.rev !es)
  | _ -> fail st "expected an expression"

(* SaC set notation (paper §2): { [i, j] -> expr | ub } builds the
   array whose element at every index [i, j] below the bound vector
   [ub] is the expression; it desugars to a full-frame genarray
   with-loop with the named indices bound to components of a fresh
   index vector. *)
and parse_set_notation st =
  expect_punct st "[";
  let ids = ref [] in
  let continue = ref true in
  while !continue do
    ids := expect_ident st :: !ids;
    if not (accept_punct st ",") then continue := false
  done;
  expect_punct st "]";
  expect_punct st "->";
  let body = parse_expr_st st in
  expect_punct st "|";
  let ub = parse_expr_st st in
  expect_punct st "}";
  let ids = List.rev !ids in
  let ivar = fresh_name "iv" in
  let su =
    List.mapi (fun k id -> (id, Idx (Var ivar, Int k))) ids
  in
  With
    { ivar;
      lb = Binop (Mul, ub, Int 0);
      ub;
      body = subst su body;
      gen = Genarray (ub, Dbl 0.) }

and parse_with st =
  expect_punct st "{";
  expect_punct st "(";
  (* Bounds parse at additive precedence so the frame's <= and < stay
     delimiters. *)
  let lb = parse_add st in
  expect_punct st "<=";
  let ivar = expect_ident st in
  expect_punct st "<";
  let ub = parse_add st in
  expect_punct st ")";
  expect_punct st ":";
  let body = parse_expr_st st in
  expect_punct st ";";
  expect_punct st "}";
  expect_punct st ":";
  let gen =
    if accept_kw st "genarray" then begin
      expect_punct st "(";
      let s = parse_expr_st st in
      expect_punct st ",";
      let d = parse_expr_st st in
      expect_punct st ")";
      Genarray (s, d)
    end
    else if accept_kw st "modarray" then begin
      expect_punct st "(";
      let a = parse_expr_st st in
      expect_punct st ")";
      Modarray a
    end
    else if accept_kw st "fold" then begin
      expect_punct st "(";
      let op =
        if accept_punct st "+" then Fsum
        else if accept_punct st "*" then Fprod
        else
          match (cur st).Lexer.tok with
          | Lexer.IDENT "max" ->
            advance st;
            Fmax
          | Lexer.IDENT "min" ->
            advance st;
            Fmin
          | _ -> fail st "expected a fold operator (+, *, max, min)"
      in
      expect_punct st ",";
      let n = parse_expr_st st in
      expect_punct st ")";
      Fold (op, n)
    end
    else fail st "expected genarray, modarray or fold"
  in
  With { ivar; lb; ub; body; gen }

(* ---------------- statements ---------------- *)

let rec parse_stmt st =
  if accept_kw st "return" then begin
    expect_punct st "(";
    let e = parse_expr_st st in
    expect_punct st ")";
    expect_punct st ";";
    Return e
  end
  else if accept_kw st "if" then begin
    expect_punct st "(";
    let c = parse_expr_st st in
    expect_punct st ")";
    let then_ = parse_block st in
    let else_ = if accept_kw st "else" then parse_block st else [] in
    If (c, then_, else_)
  end
  else if accept_kw st "for" then begin
    expect_punct st "(";
    let v = expect_ident st in
    expect_punct st "=";
    let init = parse_expr_st st in
    expect_punct st ";";
    let cond = parse_expr_st st in
    expect_punct st ";";
    let v2 = expect_ident st in
    if v2 <> v then fail st "for-loop must step its own index";
    expect_punct st "=";
    let step = parse_expr_st st in
    expect_punct st ")";
    let body = parse_block st in
    For (v, init, cond, step, body)
  end
  else begin
    let name = expect_ident st in
    expect_punct st "=";
    let e = parse_expr_st st in
    expect_punct st ";";
    Assign (name, e)
  end

and parse_block st =
  expect_punct st "{";
  let stmts = ref [] in
  while not (accept_punct st "}") do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

(* ---------------- top level ---------------- *)

let parse_fundef st =
  let finline = accept_kw st "inline" in
  let ret = parse_type st in
  let fname = expect_ident st in
  expect_punct st "(";
  let params = ref [] in
  if not (accept_punct st ")") then begin
    let continue = ref true in
    while !continue do
      let pty = parse_type st in
      let pname = expect_ident st in
      params := { pname; pty } :: !params;
      if accept_punct st ")" then continue := false
      else expect_punct st ","
    done
  end;
  let fbody = parse_block st in
  { fname; ret; params = List.rev !params; fbody; finline }

let parse_program src =
  restart_fresh_names [];
  let st = { toks = Array.of_list (Lexer.tokenize src); at = 0 } in
  let funs = ref [] in
  while (cur st).Lexer.tok <> Lexer.EOF do
    if not (looks_like_type st || (cur st).Lexer.tok = Lexer.KW "inline")
    then fail st "expected a function definition";
    funs := parse_fundef st :: !funs
  done;
  List.rev !funs

let parse_expr src =
  let st = { toks = Array.of_list (Lexer.tokenize src); at = 0 } in
  let e = parse_expr_st st in
  (match (cur st).Lexer.tok with
   | Lexer.EOF -> ()
   | _ -> fail st "trailing input after expression");
  e
