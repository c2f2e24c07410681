(* Tests for the mini-SaC compiler: lexer, parser, type system,
   evaluator and every optimisation pass. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 1e-12))

let value_testable = Alcotest.testable Sac.Value.pp Sac.Value.equal

let eval_expr ?(env = []) src =
  Sac.Eval.eval_expr (Sac.Eval.make_ctx []) env (Sac.Parser.parse_expr src)

let run_src src name args =
  let ctx = Sac.Eval.make_ctx (Sac.Parser.parse_program src) in
  Sac.Eval.run_fun ctx name args

let darr xs = Sac.Value.Vdarr (Tensor.Nd.of_list1 xs)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let tokens src =
  List.map (fun { Sac.Lexer.tok; _ } -> tok) (Sac.Lexer.tokenize src)

let test_lexer_basics () =
  check_int "token count" 7 (List.length (tokens "x = a + 1.5;"));
  check_bool "keyword" true (List.mem (Sac.Lexer.KW "double") (tokens "double x"));
  check_bool "ident" true (List.mem (Sac.Lexer.IDENT "foo_bar") (tokens "foo_bar"));
  check_bool "float" true (List.mem (Sac.Lexer.DBLLIT 2.5) (tokens "2.5"));
  check_bool "exponent" true (List.mem (Sac.Lexer.DBLLIT 1e3) (tokens "1e3"));
  check_bool "int" true (List.mem (Sac.Lexer.INTLIT 42) (tokens "42"));
  check_bool "two-char" true (List.mem (Sac.Lexer.PUNCT "<=") (tokens "a <= b"))

let test_lexer_comments () =
  check_int "line comment skipped" 2 (List.length (tokens "x // c\n"));
  check_int "block comment skipped" 3 (List.length (tokens "a /* b */ c"))

let test_lexer_dot_disambiguation () =
  (* [.] must lex as three tokens, 1.5 as one. *)
  check_int "[.]" 4 (List.length (tokens "[.]"));
  check_int "1.5" 2 (List.length (tokens "1.5"))

let test_lexer_errors () =
  check_bool "bad char" true
    (try
       ignore (Sac.Lexer.tokenize "a $ b");
       false
     with Sac.Lexer.Error _ -> true);
  check_bool "unterminated comment" true
    (try
       ignore (Sac.Lexer.tokenize "/* oops");
       false
     with Sac.Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_precedence () =
  Alcotest.check value_testable "mul binds tighter" (Sac.Value.Vint 7)
    (eval_expr "1 + 2 * 3");
  Alcotest.check value_testable "parens" (Sac.Value.Vint 9)
    (eval_expr "(1 + 2) * 3");
  Alcotest.check value_testable "unary minus" (Sac.Value.Vint (-5))
    (eval_expr "-5");
  Alcotest.check value_testable "comparison" (Sac.Value.Vbool true)
    (eval_expr "1 + 1 == 2");
  Alcotest.check value_testable "ternary" (Sac.Value.Vint 1)
    (eval_expr "2 > 1 ? 1 : 0");
  Alcotest.check value_testable "and or" (Sac.Value.Vbool true)
    (eval_expr "true || false && false")

let test_parser_vectors_indexing () =
  Alcotest.check value_testable "vector literal"
    (Sac.Value.Vivec [| 1; 2; 3 |])
    (eval_expr "[1, 2, 3]");
  Alcotest.check value_testable "double vector" (darr [ 1.; 2.5 ])
    (eval_expr "[1.0, 2.5]");
  Alcotest.check value_testable "vector indexing" (Sac.Value.Vint 2)
    (eval_expr "[1, 2, 3][1]")

let test_parser_types () =
  let prog =
    Sac.Parser.parse_program
      "double[3,4] f(double[.] a, double[.,.] b, double[+] c, int n) { \
       return (1.0); }"
  in
  match prog with
  | [ fd ] ->
    check_bool "ret aks" true (fd.Sac.Ast.ret.Sac.Ast.shape = Sac.Ast.Aks [ 3; 4 ]);
    (match List.map (fun p -> p.Sac.Ast.pty.Sac.Ast.shape) fd.Sac.Ast.params with
     | [ Sac.Ast.Akd 1; Sac.Ast.Akd 2; Sac.Ast.Aud; Sac.Ast.Aks [] ] -> ()
     | _ -> Alcotest.fail "parameter shapes wrong")
  | _ -> Alcotest.fail "expected one function"

let test_parser_with_loop () =
  match Sac.Parser.parse_expr
          "with { ([0] <= iv < [5]) : 1.0; } : genarray([5], 0.0)"
  with
  | Sac.Ast.With w ->
    check_string "ivar" "iv" w.Sac.Ast.ivar;
    (match w.Sac.Ast.gen with
     | Sac.Ast.Genarray _ -> ()
     | _ -> Alcotest.fail "expected genarray")
  | _ -> Alcotest.fail "expected with-loop"

let test_parser_fold_modarray () =
  (match Sac.Parser.parse_expr
           "with { ([0] <= i < [3]) : 2.0; } : fold(+, 0.0)"
   with
   | Sac.Ast.With { Sac.Ast.gen = Sac.Ast.Fold (Sac.Ast.Fsum, _); _ } -> ()
   | _ -> Alcotest.fail "expected fold(+)");
  match Sac.Parser.parse_expr
          "with { ([0] <= i < [1]) : 9.0; } : modarray(a)"
  with
  | Sac.Ast.With { Sac.Ast.gen = Sac.Ast.Modarray (Sac.Ast.Var "a"); _ } -> ()
  | _ -> Alcotest.fail "expected modarray"

let test_parser_index_shorthand () =
  (* a[i, j] is sugar for a[[i, j]]. *)
  match Sac.Parser.parse_expr "a[i, j]" with
  | Sac.Ast.Idx (Sac.Ast.Var "a", Sac.Ast.Vec [ Sac.Ast.Var "i"; Sac.Ast.Var "j" ]) -> ()
  | _ -> Alcotest.fail "index shorthand"

let test_parser_statements () =
  let prog =
    Sac.Parser.parse_program
      {|double f(int n) {
          s = 0.0;
          for (i = 0; i < n; i = i + 1) {
            if (i % 2 == 0) { s = s + 1.0; } else { s = s - 0.5; }
          }
          return (s);
        }|}
  in
  Sac.Typecheck.check_program prog;
  let ctx = Sac.Eval.make_ctx prog in
  Alcotest.check value_testable "mixed control flow" (Sac.Value.Vdbl 1.)
    (Sac.Eval.run_fun ctx "f" [ Sac.Value.Vint 4 ])

let test_parser_errors () =
  let bad src =
    try
      ignore (Sac.Parser.parse_program src);
      false
    with Sac.Parser.Error _ -> true
  in
  check_bool "missing semicolon" true (bad "double f() { return (1.0) }");
  check_bool "bad type" true (bad "quux f() { return (1.0); }");
  check_bool "for loop steps other var" true
    (bad "double f() { for (i = 0; i < 3; j = 1) { x = 1.0; } return (1.0); }")

let test_pretty_roundtrip () =
  (* Pretty-printed programs parse back to the same AST. *)
  List.iter
    (fun (_, src) ->
      let p1 = Sac.Parser.parse_program src in
      let printed = Sac.Pretty.program_to_string p1 in
      let p2 = Sac.Parser.parse_program printed in
      check_bool "roundtrip" true (p1 = p2))
    Sacprog.Programs.all

(* ------------------------------------------------------------------ *)
(* AST utilities                                                       *)
(* ------------------------------------------------------------------ *)

let test_free_vars () =
  let e = Sac.Parser.parse_expr "a + b * a" in
  Alcotest.(check (list string)) "free vars" [ "a"; "b" ] (Sac.Ast.free_vars e);
  let w =
    Sac.Parser.parse_expr
      "with { ([0] <= iv < n) : a[iv] + iv[0]; } : genarray(n, 0.0)"
  in
  Alcotest.(check (list string)) "ivar bound" [ "n"; "a" ]
    (Sac.Ast.free_vars w)

let test_subst_capture () =
  (* Substituting an expression mentioning iv under a binder of iv must
     rename the binder. *)
  let w =
    Sac.Parser.parse_expr
      "with { ([0] <= iv < [3]) : x; } : genarray([3], 0.0)"
  in
  let result = Sac.Ast.subst [ ("x", Sac.Parser.parse_expr "iv[0] * 1.0") ] w in
  match result with
  | Sac.Ast.With w' ->
    check_bool "binder renamed" true (w'.Sac.Ast.ivar <> "iv");
    check_bool "substituted body mentions iv" true
      (List.mem "iv" (Sac.Ast.free_vars w'.Sac.Ast.body))
  | _ -> Alcotest.fail "expected with"

let test_expr_size_map () =
  let e = Sac.Parser.parse_expr "1 + 2 * 3" in
  check_int "size" 5 (Sac.Ast.expr_size e);
  let doubled =
    Sac.Ast.map_expr
      (function Sac.Ast.Int n -> Sac.Ast.Int (2 * n) | e -> e)
      e
  in
  Alcotest.check value_testable "map_expr"
    (Sac.Value.Vint 26)
    (Sac.Eval.eval_expr (Sac.Eval.make_ctx []) [] doubled)

(* ------------------------------------------------------------------ *)
(* Types and typechecking                                              *)
(* ------------------------------------------------------------------ *)

let test_types_lattice () =
  let open Sac.Ast in
  check_bool "aks <= akd" true (Sac.Types.sub_shape (Aks [ 3; 4 ]) (Akd 2));
  check_bool "akd <= aud" true (Sac.Types.sub_shape (Akd 2) Aud);
  check_bool "aks <= aud" true (Sac.Types.sub_shape (Aks []) Aud);
  check_bool "akd not <= aks" false (Sac.Types.sub_shape (Akd 2) (Aks [ 3; 4 ]));
  check_bool "rank mismatch" false (Sac.Types.sub_shape (Aks [ 3 ]) (Akd 2));
  check_bool "join" true
    (Sac.Types.join_shape (Aks [ 2 ]) (Aks [ 3 ]) = Akd 1);
  check_bool "join rank mismatch" true
    (Sac.Types.join_shape (Aks [ 2 ]) (Akd 2) = Aud);
  check_bool "meet" true
    (Sac.Types.meet_shape (Aks [ 2 ]) (Akd 1) = Some (Aks [ 2 ]));
  check_bool "meet conflict" true
    (Sac.Types.meet_shape (Aks [ 2 ]) (Aks [ 3 ]) = None)

let accepts src =
  try
    Sac.Typecheck.check_program (Sac.Parser.parse_program src);
    true
  with Sac.Typecheck.Error _ -> false

let test_typecheck_accepts () =
  check_bool "paper kernels" true
    (accepts Sacprog.Programs.df_dx_no_boundary);
  check_bool "getdt" true (accepts Sacprog.Programs.get_dt);
  check_bool "euler solver" true (accepts Sacprog.Programs.euler_1d);
  check_bool "int promotes to double" true
    (accepts "double f(double x) { return (x); } \
              double g() { return (f(1)); }")

let test_typecheck_rejects () =
  check_bool "shape mismatch" false
    (accepts "double f(double[3] a, double[4] b) { return (maxval(a + b)); }");
  check_bool "rank mismatch at call" false
    (accepts
       "double g(double[.] v) { return (maxval(v)); } \
        double f(double[.,.] m) { return (g(m)); }");
  check_bool "unbound variable" false
    (accepts "double f() { return (x); }");
  check_bool "bool arithmetic" false
    (accepts "double f() { return (true + 1.0); }");
  check_bool "missing return" false
    (accepts "double f() { x = 1.0; }");
  check_bool "condition not bool" false
    (accepts "double f() { if (1) { return (1.0); } return (0.0); }");
  check_bool "duplicate function" false
    (accepts "double f() { return (1.0); } double f() { return (2.0); }");
  check_bool "builtin redefinition" false
    (accepts "double sqrt(double x) { return (x); }");
  check_bool "with bounds not vectors" false
    (accepts
       "double f() { return (maxval(with { (0 <= iv < 3) : 1.0; } : \
        genarray([3], 0.0))); }");
  check_bool "return type mismatch" false
    (accepts "double[.] f() { return (1.0); }")

let test_typecheck_subtyped_call () =
  (* A double[.] argument satisfies a double[+] parameter -- the
     paper's §4.2 point. *)
  check_bool "akd satisfies aud" true
    (accepts
       "double g(double[+] a) { return (maxval(a)); } \
        double f(double[.] v) { return (g(v)); }");
  (* And AKS satisfies AKD. *)
  check_bool "aks satisfies akd" true
    (accepts
       "double g(double[.] a) { return (maxval(a)); } \
        double f(double[4] v) { return (g(v)); }")

let test_typecheck_branch_join () =
  (* A variable assigned different known shapes in two branches is
     usable afterwards at the joined (AKD) type. *)
  check_bool "join across if" true
    (accepts
       "double f(bool b) { \
          if (b) { v = [1.0, 2.0]; } else { v = [1.0, 2.0, 3.0]; } \
          return (maxval(v)); }")

(* ------------------------------------------------------------------ *)
(* Evaluator                                                           *)
(* ------------------------------------------------------------------ *)

let test_eval_with_genarray () =
  Alcotest.check value_testable "squares"
    (darr [ 0.; 1.; 4.; 9. ])
    (eval_expr
       "with { ([0] <= iv < [4]) : 1.0 * iv[0] * iv[0]; } : genarray([4], 0.0)")

let test_eval_with_partial_partition () =
  (* Cells outside the partition take the default. *)
  Alcotest.check value_testable "partial"
    (darr [ 7.; 1.; 1.; 7. ])
    (eval_expr
       "with { ([1] <= iv < [3]) : 1.0; } : genarray([4], 7.0)")

let test_eval_with_2d () =
  let v =
    eval_expr
      "with { ([0,0] <= iv < [2,3]) : 1.0 * (iv[0] * 10 + iv[1]); } : \
       genarray([2,3], 0.0)"
  in
  Alcotest.check value_testable "2d genarray"
    (Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 0.; 1.; 2. ]; [ 10.; 11.; 12. ] ]))
    v

let test_eval_modarray () =
  Alcotest.check value_testable "modarray"
    (darr [ 1.; 9.; 9.; 4. ])
    (run_src
       "double[.] f(double[.] a) { return (with { ([1] <= iv < [3]) : \
        9.0; } : modarray(a)); }"
       "f" [ darr [ 1.; 2.; 3.; 4. ] ])

let test_eval_fold () =
  Alcotest.check value_testable "fold sum" (Sac.Value.Vdbl 6.)
    (eval_expr "with { ([0] <= iv < [4]) : 1.0 * iv[0]; } : fold(+, 0.0)");
  Alcotest.check value_testable "fold max" (Sac.Value.Vdbl 8.)
    (eval_expr
       "with { ([0] <= iv < [4]) : 1.0 * iv[0] * (3 - iv[0]) * 4; } : \
        fold(max, 0.0)");
  Alcotest.check value_testable "fold prod" (Sac.Value.Vdbl 24.)
    (eval_expr
       "with { ([1] <= iv < [5]) : 1.0 * iv[0]; } : fold(*, 1.0)")

let test_eval_whole_array_arith () =
  Alcotest.check value_testable "array + scalar" (darr [ 2.; 3. ])
    (run_src "double[.] f(double[.] a) { return (a + 1.0); }" "f"
       [ darr [ 1.; 2. ] ]);
  Alcotest.check value_testable "array / array" (darr [ 2.; 2. ])
    (run_src "double[.] f(double[.] a, double[.] b) { return (a / b); }" "f"
       [ darr [ 4.; 6. ]; darr [ 2.; 3. ] ])

let test_eval_builtins () =
  Alcotest.check value_testable "shape" (Sac.Value.Vivec [| 4 |])
    (run_src "int[.] f(double[.] a) { return (shape(a)); }" "f"
       [ darr [ 1.; 2.; 3.; 4. ] ]);
  Alcotest.check value_testable "dim" (Sac.Value.Vint 1)
    (run_src "int f(double[.] a) { return (dim(a)); }" "f" [ darr [ 1. ] ]);
  Alcotest.check value_testable "drop" (darr [ 2.; 3. ])
    (run_src "double[.] f(double[.] a) { return (drop([1], a)); }" "f"
       [ darr [ 1.; 2.; 3. ] ]);
  Alcotest.check value_testable "sum" (Sac.Value.Vdbl 6.)
    (run_src "double f(double[.] a) { return (sum(a)); }" "f"
       [ darr [ 1.; 2.; 3. ] ]);
  Alcotest.check value_testable "min scalar" (Sac.Value.Vdbl 1.)
    (eval_expr "min(1.0, 2.0)");
  Alcotest.check value_testable "pow" (Sac.Value.Vdbl 8.)
    (eval_expr "pow(2.0, 3.0)")

let test_eval_for_recurrence () =
  (* Fibonacci via the for-loop recurrence construct. *)
  Alcotest.check value_testable "fib 10" (Sac.Value.Vdbl 55.)
    (run_src
       {|double fib(int n) {
           a = 0.0;
           b = 1.0;
           for (i = 0; i < n; i = i + 1) {
             t = b;
             b = a + b;
             a = t;
           }
           return (a);
         }|}
       "fib" [ Sac.Value.Vint 10 ])

let test_eval_paper_dfdx () =
  Alcotest.check value_testable "paper kernel" (darr [ 3.; 5.; 7. ])
    (run_src Sacprog.Programs.df_dx_no_boundary "dfDxNoBoundary"
       [ darr [ 1.; 4.; 9.; 16. ]; Sac.Value.Vdbl 1. ])

let test_eval_getdt_rank_polymorphic () =
  (* The same getDt body serves rank-1 and rank-2 arguments -- the
     paper's double[+] polymorphism. *)
  let ctx = Sac.Eval.make_ctx (Sac.Parser.parse_program Sacprog.Programs.get_dt) in
  let args1 =
    [ darr [ 0.5; -1. ]; darr [ 1.; 1. ]; darr [ 1.; 0.5 ];
      Sac.Value.Vdbl 1.4; Sac.Value.Vdbl 0.01; Sac.Value.Vdbl 0.5 ]
  in
  let m x = Sac.Value.Vdarr (Tensor.Nd.of_list2 x) in
  let args2 =
    [ m [ [ 0.5; -1. ]; [ 0.; 0. ] ];
      m [ [ 1.; 1. ]; [ 1.; 1. ] ];
      m [ [ 1.; 0.5 ]; [ 1.; 1. ] ];
      Sac.Value.Vdbl 1.4; Sac.Value.Vdbl 0.01; Sac.Value.Vdbl 0.5 ]
  in
  let d1 = Sac.Eval.run_fun ctx "getDt" args1 in
  let d2 = Sac.Eval.run_fun ctx "getDt" args2 in
  check_float "rank-1" 0.00187 (Float.round (Sac.Value.to_float d1 *. 1e5) /. 1e5);
  (* The rank-2 argument contains the rank-1 data: same maximum. *)
  check_float "rank-2 same dt" (Sac.Value.to_float d1) (Sac.Value.to_float d2)

let test_eval_errors () =
  let fails f =
    try
      ignore (f ());
      false
    with Sac.Eval.Error _ -> true
  in
  check_bool "unbound" true (fails (fun () -> eval_expr "x + 1"));
  check_bool "oob index" true
    (fails (fun () ->
         run_src "double f(double[.] a) { return (a[[9]]); }" "f"
           [ darr [ 1. ] ]));
  check_bool "bad partition" true
    (fails (fun () ->
         eval_expr
           "with { ([0] <= iv < [9]) : 1.0; } : genarray([3], 0.0)"));
  check_bool "arity" true
    (fails (fun () ->
         run_src "double f(double x) { return (x); }" "f" []))

let test_eval_parallel_matches_sequential () =
  let src =
    "double[.] f(int n) { return (with { ([0] <= iv < [n]) : \
     1.0 * iv[0] * iv[0]; } : genarray([n], 0.0)); }"
  in
  let seq = run_src src "f" [ Sac.Value.Vint 2000 ] in
  let exec = Parallel.Exec.spmd ~lanes:2 in
  let ctx =
    Sac.Eval.make_ctx ~exec ~parallel_threshold:100
      (Sac.Parser.parse_program src)
  in
  let par = Sac.Eval.run_fun ctx "f" [ Sac.Value.Vint 2000 ] in
  Alcotest.check value_testable "parallel = sequential" seq par

let test_eval_stats () =
  let ctx = Sac.Eval.make_ctx (Sac.Parser.parse_program Sacprog.Programs.get_dt) in
  ignore
    (Sac.Eval.run_fun ctx "getDt"
       [ darr [ 0.5; -1. ]; darr [ 1.; 1. ]; darr [ 1.; 0.5 ];
         Sac.Value.Vdbl 1.4; Sac.Value.Vdbl 0.01; Sac.Value.Vdbl 0.5 ]);
  let st = Sac.Eval.stats ctx in
  check_int "with-loops of unoptimised getDt" 7 st.Sac.Eval.with_loops;
  check_int "calls" 1 st.Sac.Eval.calls

(* ------------------------------------------------------------------ *)
(* Optimisation passes                                                 *)
(* ------------------------------------------------------------------ *)

let test_fold_constants () =
  let f e = Sac.Opt_fold.expr (Sac.Parser.parse_expr e) in
  check_bool "int arith" true (f "1 + 2 * 3" = Sac.Ast.Int 7);
  check_bool "float arith" true (f "1.5 * 2.0" = Sac.Ast.Dbl 3.);
  check_bool "mixed promotes" true (f "1 + 0.5" = Sac.Ast.Dbl 1.5);
  check_bool "comparison" true (f "3 < 4" = Sac.Ast.Bool true);
  check_bool "cond" true (f "3 < 4 ? 1 : 2" = Sac.Ast.Int 1);
  check_bool "identity x+0" true (f "x + 0" = Sac.Ast.Var "x");
  check_bool "identity x*1" true (f "x * 1" = Sac.Ast.Var "x");
  check_bool "vector arith" true
    (f "[1, 2] + [10, 20]" = Sac.Parser.parse_expr "[11, 22]");
  check_bool "vector zero identity" true (f "x + [0, 0]" = Sac.Ast.Var "x");
  check_bool "x*0 not folded (shape!)" true (f "x * 0" <> Sac.Ast.Int 0);
  check_bool "div by zero kept" true
    (match f "1 / 0" with Sac.Ast.Binop _ -> true | _ -> false);
  check_bool "sqrt" true (f "sqrt(4.0)" = Sac.Ast.Dbl 2.);
  check_bool "zeros" true (f "zeros(2)" = Sac.Parser.parse_expr "[0, 0]")

let test_inline_marked () =
  let prog =
    Sac.Parser.parse_program
      "inline double sq(double x) { return (x * x); } \
       double f(double y) { return (sq(y) + sq(2.0)); }"
  in
  let inlined = Sac.Opt_inline.run prog in
  let f = Option.get (Sac.Ast.lookup_fun inlined "f") in
  let has_call = function
    | Sac.Ast.Call ("sq", _) -> true
    | e ->
      let found = ref false in
      ignore
        (Sac.Ast.map_expr
           (fun sub ->
             (match sub with Sac.Ast.Call ("sq", _) -> found := true | _ -> ());
             sub)
           e);
      !found
  in
  let any_call =
    List.exists
      (function
        | Sac.Ast.Assign (_, e) | Sac.Ast.Return e -> has_call e
        | _ -> false)
      f.Sac.Ast.fbody
  in
  check_bool "no sq calls remain" false any_call;
  (* Semantics preserved. *)
  let before = Sac.Eval.run_fun (Sac.Eval.make_ctx prog) "f" [ Sac.Value.Vdbl 3. ] in
  let after = Sac.Eval.run_fun (Sac.Eval.make_ctx inlined) "f" [ Sac.Value.Vdbl 3. ] in
  Alcotest.check value_testable "same result" before after

let test_inline_skips_recursive () =
  let prog =
    Sac.Parser.parse_program
      "inline double f(double x) { return (x > 1.0 ? f(x - 1.0) : x); }"
  in
  let inlined = Sac.Opt_inline.run prog in
  check_bool "recursive untouched" true (prog = inlined)

let test_unroll_genarray () =
  let e =
    Sac.Opt_unroll.expr ~max_size:20
      (Sac.Parser.parse_expr
         "with { ([0] <= iv < [3]) : 1.0 * iv[0]; } : genarray([3], 0.0)")
  in
  (match e with
   | Sac.Ast.Vec [ _; _; _ ] -> ()
   | _ -> Alcotest.fail "expected unrolled vector");
  (* Too big: untouched. *)
  let big =
    Sac.Parser.parse_expr
      "with { ([0] <= iv < [100]) : 1.0; } : genarray([100], 0.0)"
  in
  check_bool "big untouched" true
    (Sac.Opt_unroll.expr ~max_size:20 big = big)

let test_unroll_fold () =
  let e =
    Sac.Opt_unroll.expr ~max_size:20
      (Sac.Parser.parse_expr
         "with { ([0] <= iv < [4]) : 1.0 * iv[0]; } : fold(+, 0.0)")
  in
  let v = Sac.Eval.eval_expr (Sac.Eval.make_ctx []) [] (Sac.Opt_fold.expr e) in
  Alcotest.check value_testable "fold unrolled and folded" (Sac.Value.Vdbl 6.) v;
  (* No With nodes remain. *)
  let has_with = ref false in
  ignore
    (Sac.Ast.map_expr
       (fun sub ->
         (match sub with Sac.Ast.With _ -> has_with := true | _ -> ());
         sub)
       e);
  check_bool "no with-loop left" false !has_with

let test_cse () =
  let prog =
    Sac.Parser.parse_program
      "double f(double x) { a = sqrt(x + 1.0); b = sqrt(x + 1.0); \
       return (a + b); }"
  in
  let opt = Sac.Opt_cse.run prog in
  let f = Option.get (Sac.Ast.lookup_fun opt "f") in
  (match f.Sac.Ast.fbody with
   | [ _; Sac.Ast.Assign ("b", Sac.Ast.Var "a"); _ ] -> ()
   | _ -> Alcotest.fail "expected b = a after CSE");
  let r = Sac.Eval.run_fun (Sac.Eval.make_ctx opt) "f" [ Sac.Value.Vdbl 3. ] in
  Alcotest.check value_testable "semantics" (Sac.Value.Vdbl 4.) r

let test_cse_respects_rebinding () =
  let prog =
    Sac.Parser.parse_program
      "double f(double x) { a = x + 1.0; x = 0.0; b = x + 1.0; \
       return (a + b); }"
  in
  let opt = Sac.Opt_cse.run prog in
  let r = Sac.Eval.run_fun (Sac.Eval.make_ctx opt) "f" [ Sac.Value.Vdbl 5. ] in
  Alcotest.check value_testable "no stale reuse" (Sac.Value.Vdbl 7.) r

let test_dce () =
  let prog =
    Sac.Parser.parse_program
      "double f(double x) { dead = sqrt(x); live = x * 2.0; \
       return (live); }"
  in
  let opt = Sac.Opt_dce.run prog in
  let f = Option.get (Sac.Ast.lookup_fun opt "f") in
  check_int "dead assignment removed" 2 (List.length f.Sac.Ast.fbody);
  check_bool "live kept" true
    (List.exists
       (function Sac.Ast.Assign ("live", _) -> true | _ -> false)
       f.Sac.Ast.fbody)

let test_dce_keeps_loop_carried () =
  let src =
    {|double f(int n) {
        s = 0.0;
        for (i = 0; i < n; i = i + 1) { s = s + 1.0; }
        return (s);
      }|}
  in
  let prog = Sac.Parser.parse_program src in
  let opt = Sac.Opt_dce.run prog in
  let r = Sac.Eval.run_fun (Sac.Eval.make_ctx opt) "f" [ Sac.Value.Vint 5 ] in
  Alcotest.check value_testable "loop survives" (Sac.Value.Vdbl 5.) r

let count_with_loops ctx = (Sac.Eval.stats ctx).Sac.Eval.with_loops

let test_fuse_dfdx () =
  (* The paper's dfDxNoBoundary: 3 whole-array ops fuse to one
     with-loop. *)
  let prog = Sac.Parser.parse_program Sacprog.Programs.df_dx_no_boundary in
  let fused = Sac.Opt_fuse.run prog in
  let arg = [ darr [ 1.; 4.; 9.; 16. ]; Sac.Value.Vdbl 2. ] in
  let ctx1 = Sac.Eval.make_ctx prog in
  let r1 = Sac.Eval.run_fun ctx1 "dfDxNoBoundary" arg in
  let ctx2 = Sac.Eval.make_ctx fused in
  let r2 = Sac.Eval.run_fun ctx2 "dfDxNoBoundary" arg in
  Alcotest.check value_testable "same values" r1 r2;
  check_int "unfused ops" 4 (count_with_loops ctx1);
  check_int "fused ops" 1 (count_with_loops ctx2)

let test_fuse_getdt_to_single_fold () =
  (* Through the full pipeline, getDt becomes one fold with-loop. *)
  let opt, _ = Sac.Pipeline.compile Sacprog.Programs.get_dt in
  let ctx = Sac.Eval.make_ctx opt in
  let r =
    Sac.Eval.run_fun ctx "getDt"
      [ darr [ 0.5; -1. ]; darr [ 1.; 1. ]; darr [ 1.; 0.5 ];
        Sac.Value.Vdbl 1.4; Sac.Value.Vdbl 0.01; Sac.Value.Vdbl 0.5 ]
  in
  check_int "single with-loop" 1 (count_with_loops ctx);
  check_float "value preserved" (0.5 /. ((1. +. Float.sqrt (1.4 /. 0.5)) /. 0.01))
    (Sac.Value.to_float r)

let test_fuse_preserves_partial_partition () =
  (* A with-loop with a non-full partition must NOT be folded into a
     consumer (the default value matters). *)
  let src =
    "double f(double[.] a) { \
       b = with { ([1] <= iv < [2]) : 100.0; } : genarray([3], 5.0); \
       return (sum(b + 0.0 * a[[0]])); }"
  in
  let prog = Sac.Parser.parse_program src in
  let opt, _ = Sac.Pipeline.optimize prog in
  let r1 = Sac.Eval.run_fun (Sac.Eval.make_ctx prog) "f" [ darr [ 1. ] ] in
  let r2 = Sac.Eval.run_fun (Sac.Eval.make_ctx opt) "f" [ darr [ 1. ] ] in
  Alcotest.check value_testable "partial partition preserved" r1 r2

let test_pipeline_fixpoint_and_safety () =
  (* The pipeline converges and re-typechecks after each cycle. *)
  List.iter
    (fun (_, src) ->
      let opt, report = Sac.Pipeline.compile src in
      Sac.Typecheck.check_program opt;
      check_bool "converged before limit" true
        (report.Sac.Pipeline.cycles_used < 100))
    Sacprog.Programs.all

let test_pipeline_o0_identity () =
  let prog = Sac.Parser.parse_program Sacprog.Programs.get_dt in
  let opt, _ = Sac.Pipeline.optimize ~options:Sac.Pipeline.o0 prog in
  check_bool "O0 keeps the program" true (prog = opt)

(* ------------------------------------------------------------------ *)
(* Set notation and overloading (paper §2 features)                    *)
(* ------------------------------------------------------------------ *)

let test_set_notation_transpose () =
  (* The paper's own example: { [i,j] -> m[j,i] }. *)
  Alcotest.check value_testable "transpose"
    (Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 1.; 4. ]; [ 2.; 5. ]; [ 3.; 6. ] ]))
    (run_src
       "double[.,.] t(double[.,.] m) { return ({ [i, j] -> m[j, i] |         reverse(shape(m)) }); }"
       "t"
       [ Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ]) ])

let test_set_notation_1d () =
  Alcotest.check value_testable "iota-like"
    (darr [ 0.; 2.; 4.; 6. ])
    (eval_expr "{ [i] -> 2.0 * i | [4] }")

let test_set_notation_typechecks () =
  check_bool "well-typed" true
    (accepts
       "double[.,.] t(double[.,.] m) { return ({ [i, j] -> m[j, i] |         reverse(shape(m)) }); }")

let test_set_notation_fuses () =
  (* Set notation desugars to a full-frame genarray, so it
     participates in with-loop folding like any other with-loop. *)
  let src =
    "double f(double[.,.] m) { t = { [i, j] -> m[j, i] |      reverse(shape(m)) }; return (maxval(t)); }"
  in
  let opt, _ = Sac.Pipeline.compile src in
  let ctx = Sac.Eval.make_ctx opt in
  let m = Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 1.; 9. ]; [ 2.; 3. ] ]) in
  let r = Sac.Eval.run_fun ctx "f" [ m ] in
  Alcotest.check value_testable "max of transpose" (Sac.Value.Vdbl 9.) r;
  check_int "fused to one fold" 1 (count_with_loops ctx)

let test_reverse_builtin () =
  Alcotest.check value_testable "ivec" (Sac.Value.Vivec [| 3; 2; 1 |])
    (eval_expr "reverse([1, 2, 3])");
  Alcotest.check value_testable "double vec" (darr [ 2.; 1. ])
    (eval_expr "reverse([1.0, 2.0])")

let overload_src =
  {|double norm(double[.] v) { return (maxval(fabs(v))); }
    double norm(double[.,.] m) {
      return (sqrt(with { (shape(m) * 0 <= iv < shape(m)) :
                          m[iv] * m[iv]; } : fold(+, 0.0)));
    }
    double norm(double[+] a) { return (maxval(fabs(a)) + 1000.0); }
    double use_vec(double[.] v) { return (norm(v)); }
    double use_mat(double[.,.] m) { return (norm(m)); }
    double use_any(double[+] a) { return (norm(a)); }|}

let test_overload_dispatch () =
  let prog = Sac.Parser.parse_program overload_src in
  Sac.Typecheck.check_program prog;
  let ctx = Sac.Eval.make_ctx prog in
  let vec = darr [ 3.; -4. ] in
  let mat = Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 3.; 4. ] ]) in
  (* Direct calls: dynamic dispatch on the exact runtime rank. *)
  Alcotest.check value_testable "vector instance" (Sac.Value.Vdbl 4.)
    (Sac.Eval.run_fun ctx "norm" [ vec ]);
  Alcotest.check value_testable "matrix instance" (Sac.Value.Vdbl 5.)
    (Sac.Eval.run_fun ctx "norm" [ mat ]);
  (* Rank-3 value only fits the double[+] fallback. *)
  let r3 =
    Sac.Value.Vdarr (Tensor.Nd.create [| 2; 2; 2 |] 1.)
  in
  Alcotest.check value_testable "fallback instance" (Sac.Value.Vdbl 1001.)
    (Sac.Eval.run_fun ctx "norm" [ r3 ]);
  (* Through statically-typed wrappers the same choices are made. *)
  Alcotest.check value_testable "via double[.] wrapper" (Sac.Value.Vdbl 4.)
    (Sac.Eval.run_fun ctx "use_vec" [ vec ]);
  Alcotest.check value_testable "via double[.,.] wrapper" (Sac.Value.Vdbl 5.)
    (Sac.Eval.run_fun ctx "use_mat" [ mat ])

let test_overload_static_dispatch_aud () =
  (* A call through double[+] binds statically to the fallback: the
     static argument type is AUD, so only the AUD instance applies. *)
  let prog = Sac.Parser.parse_program overload_src in
  let ctx = Sac.Eval.make_ctx prog in
  (* Note: use_any's dynamic call re-resolves on the runtime type, so
     a vector routed through it still reaches the vector instance —
     SaC's dispatch is on the actual shape. *)
  Alcotest.check value_testable "dynamic re-dispatch" (Sac.Value.Vdbl 4.)
    (Sac.Eval.run_fun ctx "use_any" [ darr [ 3.; -4. ] ])

let test_overload_duplicate_rejected () =
  check_bool "identical signatures rejected" false
    (accepts
       "double f(double[.] v) { return (1.0); }         double f(double[.] v) { return (2.0); }");
  check_bool "distinct signatures accepted" true
    (accepts
       "double f(double[.] v) { return (1.0); }         double f(double[.,.] v) { return (2.0); }")

let test_overload_optimizer_safe () =
  (* The pipeline must leave overloaded functions correct. *)
  let prog = Sac.Parser.parse_program overload_src in
  let opt, _ = Sac.Pipeline.optimize prog in
  let ctx = Sac.Eval.make_ctx opt in
  Alcotest.check value_testable "optimised matrix instance"
    (Sac.Value.Vdbl 5.)
    (Sac.Eval.run_fun ctx "norm"
       [ Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 3.; 4. ] ]) ])

(* ------------------------------------------------------------------ *)
(* Shape specialisation                                                *)
(* ------------------------------------------------------------------ *)

let generic_src =
  {|double g(double[+] a) { return (maxval(fabs(a))); }
    double f(double[.] v) { return (g(v)); }
    double f2(double[.] w) { return (g(w)); }|}

let test_specialize_clones_generic () =
  let prog = Sac.Parser.parse_program generic_src in
  Sac.Typecheck.check_program prog;
  let spec = Sac.Opt_specialize.run prog in
  Sac.Typecheck.check_program spec;
  (* One clone with a double[.] parameter appears... *)
  check_int "one clone added" 4 (List.length spec);
  let clone =
    List.find
      (fun fd -> fd.Sac.Ast.fname <> "g" && fd.Sac.Ast.fname <> "f"
                 && fd.Sac.Ast.fname <> "f2")
      spec
  in
  (match (List.hd clone.Sac.Ast.params).Sac.Ast.pty.Sac.Ast.shape with
   | Sac.Ast.Akd 1 -> ()
   | _ -> Alcotest.fail "clone parameter not narrowed to double[.]");
  (* ...and both call sites share it (deduplication). *)
  let ctx = Sac.Eval.make_ctx spec in
  Alcotest.check value_testable "semantics kept" (Sac.Value.Vdbl 4.)
    (Sac.Eval.run_fun ctx "f" [ darr [ 3.; -4. ] ]);
  Alcotest.check value_testable "other call too" (Sac.Value.Vdbl 2.)
    (Sac.Eval.run_fun ctx "f2" [ darr [ -2.; 1. ] ])

let test_specialize_enables_static_rank () =
  (* After specialisation + fusion, the rank-generic getDt called
     from a rank-1 wrapper fuses with a static-rank frame. *)
  let src =
    Sacprog.Programs.get_dt
    ^ {|
double wrap(double[.] u, double[.] p, double[.] rho) {
  return (getDt(u, p, rho, 1.4, 0.01, 0.5));
}
|}
  in
  let opt, _ = Sac.Pipeline.compile src in
  Sac.Typecheck.check_program opt;
  let ctx = Sac.Eval.make_ctx opt in
  let r =
    Sac.Eval.run_fun ctx "wrap"
      [ darr [ 0.5; -1. ]; darr [ 1.; 1. ]; darr [ 1.; 0.5 ] ]
  in
  check_int "one fused loop" 1 (Sac.Eval.stats ctx).Sac.Eval.with_loops;
  check_float "value" 0.00187
    (Float.round (Sac.Value.to_float r *. 1e5) /. 1e5)

let test_specialize_rejects_unsafe () =
  (* h only types generically: specialising to (double[2], double[3])
     would make the body ill-typed, so the call must stay generic. *)
  let src =
    "double h(double[.] a, double[.] b) { return (maxval(a + b)); }      double f(double[2] x, double[3] y) { return (h(x, y)); }"
  in
  let prog = Sac.Parser.parse_program src in
  Sac.Typecheck.check_program prog;
  let spec = Sac.Opt_specialize.run prog in
  Sac.Typecheck.check_program spec;
  check_int "no clone" 2 (List.length spec)

let test_specialize_in_pipeline_preserves () =
  (* The whole solver still matches the native implementation with
     specialisation in the cycle. *)
  let c = Sacprog.Runner.compile_euler_1d () in
  let _, q = Sacprog.Runner.sod_state c ~nx:30 ~steps:12 in
  let native = Sacprog.Runner.native_sod_state ~nx:30 ~steps:12 in
  check_bool "solver unchanged" true
    (Sacprog.Runner.max_abs_diff q native < 1e-12)

(* ------------------------------------------------------------------ *)
(* Standard library                                                    *)
(* ------------------------------------------------------------------ *)

let run_stdlib src name args =
  let prog =
    Sac.Parser.parse_program (Sac.Stdlib_sac.with_prelude src)
  in
  Sac.Typecheck.check_program prog;
  Sac.Eval.run_fun (Sac.Eval.make_ctx prog) name args

let test_stdlib_typechecks () =
  check_bool "prelude well-typed" true
    (accepts Sac.Stdlib_sac.prelude)

let test_stdlib_basics () =
  Alcotest.check value_testable "iota" (darr [ 0.; 1.; 2.; 3. ])
    (run_stdlib "" "iota" [ Sac.Value.Vint 4 ]);
  Alcotest.check value_testable "linspace" (darr [ 0.; 0.5; 1. ])
    (run_stdlib "" "linspace"
       [ Sac.Value.Vdbl 0.; Sac.Value.Vdbl 1.; Sac.Value.Vint 3 ]);
  Alcotest.check value_testable "concat" (darr [ 1.; 2.; 9. ])
    (run_stdlib "" "concat_v" [ darr [ 1.; 2. ]; darr [ 9. ] ]);
  Alcotest.check value_testable "mean" (Sac.Value.Vdbl 2.)
    (run_stdlib "" "mean" [ darr [ 1.; 2.; 3. ] ]);
  Alcotest.check value_testable "l2norm" (Sac.Value.Vdbl 5.)
    (run_stdlib "" "l2norm" [ darr [ 3.; 4. ] ]);
  Alcotest.check value_testable "dot" (Sac.Value.Vdbl 11.)
    (run_stdlib "" "dot" [ darr [ 1.; 2. ]; darr [ 3.; 4. ] ]);
  Alcotest.check value_testable "clamp" (darr [ 0.; 0.5; 1. ])
    (run_stdlib "" "clamp"
       [ darr [ -3.; 0.5; 7. ]; Sac.Value.Vdbl 0.; Sac.Value.Vdbl 1. ])

let test_stdlib_matmul () =
  let a = Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ]) in
  let b = Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 5.; 6. ]; [ 7.; 8. ] ]) in
  Alcotest.check value_testable "2x2 matmul"
    (Sac.Value.Vdarr (Tensor.Nd.of_list2 [ [ 19.; 22. ]; [ 43.; 50. ] ]))
    (run_stdlib "" "matmul" [ a; b ]);
  (* (A B)^T = B^T A^T through the stdlib's own transpose. *)
  let src =
    "double check(double[.,.] a, double[.,.] b) {        lhs = transpose(matmul(a, b));        rhs = matmul(transpose(b), transpose(a));        return (maxval(fabs(lhs - rhs))); }"
  in
  Alcotest.check value_testable "transpose identity" (Sac.Value.Vdbl 0.)
    (run_stdlib src "check" [ a; b ])

let test_stdlib_optimises () =
  (* The optimiser folds through library code like user code. *)
  let src =
    Sac.Stdlib_sac.with_prelude
      "double f(int n) { return (sum(iota(n) * 2.0)); }"
  in
  let opt, _ = Sac.Pipeline.compile src in
  let ctx = Sac.Eval.make_ctx opt in
  Alcotest.check value_testable "value" (Sac.Value.Vdbl 12.)
    (Sac.Eval.run_fun ctx "f" [ Sac.Value.Vint 4 ]);
  check_int "fused to one fold" 1 (Sac.Eval.stats ctx).Sac.Eval.with_loops

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random straight-line scalar programs: optimisation must preserve
   their value. *)
let scalar_expr_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 1 then
          oneof
            [ map (fun x -> Sac.Ast.Dbl x) (float_range (-10.) 10.);
              return (Sac.Ast.Var "x") ]
        else
          let* a = self (n / 2) in
          let* b = self (n / 2) in
          let* op =
            oneofl [ Sac.Ast.Add; Sac.Ast.Sub; Sac.Ast.Mul ]
          in
          return (Sac.Ast.Binop (op, a, b))))

let prop_optimize_preserves_scalar =
  QCheck2.Test.make ~name:"pipeline preserves straight-line arithmetic"
    ~count:200 scalar_expr_gen (fun e ->
      let prog =
        [ { Sac.Ast.fname = "f";
            ret = Sac.Ast.scalar Sac.Ast.Tdouble;
            params =
              [ { Sac.Ast.pname = "x";
                  pty = Sac.Ast.scalar Sac.Ast.Tdouble } ];
            fbody = [ Sac.Ast.Assign ("t", e); Sac.Ast.Return (Sac.Ast.Var "t") ];
            finline = false } ]
      in
      let opt, _ = Sac.Pipeline.optimize prog in
      let run p =
        Sac.Value.to_float
          (Sac.Eval.run_fun (Sac.Eval.make_ctx p) "f" [ Sac.Value.Vdbl 1.7 ])
      in
      let a = run prog and b = run opt in
      (Float.is_nan a && Float.is_nan b)
      || Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a))

let prop_fuse_preserves_array_chain =
  (* drop/arith chains: fusion preserves every element. *)
  QCheck2.Test.make ~name:"fusion preserves drop/arith chains" ~count:100
    QCheck2.Gen.(
      let* n = int_range 3 12 in
      let* xs = list_size (return n) (float_range (-5.) 5.) in
      let* k = int_range 1 2 in
      return (xs, k))
    (fun (xs, k) ->
      let src =
        Printf.sprintf
          "double[.] f(double[.] a) { return ((drop([%d], a) + \
           drop([-%d], a)) * 2.0 - drop([%d], a)); }"
          k k k
      in
      let prog = Sac.Parser.parse_program src in
      let opt, _ = Sac.Pipeline.optimize prog in
      let r1 = Sac.Eval.run_fun (Sac.Eval.make_ctx prog) "f" [ darr xs ] in
      let r2 = Sac.Eval.run_fun (Sac.Eval.make_ctx opt) "f" [ darr xs ] in
      Sac.Value.equal r1 r2)

let prop_unroll_preserves_folds =
  QCheck2.Test.make ~name:"unrolling preserves fold values" ~count:100
    QCheck2.Gen.(int_range 1 6)
    (fun n ->
      let src =
        Printf.sprintf
          "double f() { return (with { ([0] <= iv < [%d]) : 1.0 * iv[0] \
           + 0.5; } : fold(+, 0.0)); }"
          n
      in
      let prog = Sac.Parser.parse_program src in
      let unrolled = Sac.Opt_unroll.run ~max_size:20 prog in
      let r1 = Sac.Eval.run_fun (Sac.Eval.make_ctx prog) "f" [] in
      let r2 = Sac.Eval.run_fun (Sac.Eval.make_ctx unrolled) "f" [] in
      Float.abs (Sac.Value.to_float r1 -. Sac.Value.to_float r2) < 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_optimize_preserves_scalar;
      prop_fuse_preserves_array_chain;
      prop_unroll_preserves_folds ]

let () =
  Alcotest.run "sac"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "dot disambiguation" `Quick
            test_lexer_dot_disambiguation;
          Alcotest.test_case "errors" `Quick test_lexer_errors ] );
      ( "parser",
        [ Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "vectors/indexing" `Quick
            test_parser_vectors_indexing;
          Alcotest.test_case "types" `Quick test_parser_types;
          Alcotest.test_case "with-loop" `Quick test_parser_with_loop;
          Alcotest.test_case "fold/modarray" `Quick
            test_parser_fold_modarray;
          Alcotest.test_case "index shorthand" `Quick
            test_parser_index_shorthand;
          Alcotest.test_case "statements" `Quick test_parser_statements;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "pretty roundtrip" `Quick
            test_pretty_roundtrip ] );
      ( "ast",
        [ Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "capture-avoiding subst" `Quick
            test_subst_capture;
          Alcotest.test_case "size/map" `Quick test_expr_size_map ] );
      ( "types",
        [ Alcotest.test_case "lattice" `Quick test_types_lattice;
          Alcotest.test_case "accepts" `Quick test_typecheck_accepts;
          Alcotest.test_case "rejects" `Quick test_typecheck_rejects;
          Alcotest.test_case "subtyped calls" `Quick
            test_typecheck_subtyped_call;
          Alcotest.test_case "branch join" `Quick
            test_typecheck_branch_join ] );
      ( "eval",
        [ Alcotest.test_case "genarray" `Quick test_eval_with_genarray;
          Alcotest.test_case "partial partition" `Quick
            test_eval_with_partial_partition;
          Alcotest.test_case "2d" `Quick test_eval_with_2d;
          Alcotest.test_case "modarray" `Quick test_eval_modarray;
          Alcotest.test_case "fold" `Quick test_eval_fold;
          Alcotest.test_case "whole-array arith" `Quick
            test_eval_whole_array_arith;
          Alcotest.test_case "builtins" `Quick test_eval_builtins;
          Alcotest.test_case "for recurrence" `Quick
            test_eval_for_recurrence;
          Alcotest.test_case "paper dfdx" `Quick test_eval_paper_dfdx;
          Alcotest.test_case "rank polymorphism" `Quick
            test_eval_getdt_rank_polymorphic;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_eval_parallel_matches_sequential;
          Alcotest.test_case "stats" `Quick test_eval_stats ] );
      ( "paper-features",
        [ Alcotest.test_case "set notation transpose" `Quick
            test_set_notation_transpose;
          Alcotest.test_case "set notation 1d" `Quick test_set_notation_1d;
          Alcotest.test_case "set notation typechecks" `Quick
            test_set_notation_typechecks;
          Alcotest.test_case "set notation fuses" `Quick
            test_set_notation_fuses;
          Alcotest.test_case "reverse builtin" `Quick test_reverse_builtin;
          Alcotest.test_case "overload dispatch" `Quick
            test_overload_dispatch;
          Alcotest.test_case "overload via aud wrapper" `Quick
            test_overload_static_dispatch_aud;
          Alcotest.test_case "duplicate signatures" `Quick
            test_overload_duplicate_rejected;
          Alcotest.test_case "optimiser-safe" `Quick
            test_overload_optimizer_safe ] );
      ( "optimiser",
        [ Alcotest.test_case "constant folding" `Quick test_fold_constants;
          Alcotest.test_case "inline marked" `Quick test_inline_marked;
          Alcotest.test_case "inline skips recursive" `Quick
            test_inline_skips_recursive;
          Alcotest.test_case "unroll genarray" `Quick test_unroll_genarray;
          Alcotest.test_case "unroll fold" `Quick test_unroll_fold;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "cse rebinding" `Quick
            test_cse_respects_rebinding;
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "dce loop-carried" `Quick
            test_dce_keeps_loop_carried;
          Alcotest.test_case "fuse dfdx" `Quick test_fuse_dfdx;
          Alcotest.test_case "fuse getdt to fold" `Quick
            test_fuse_getdt_to_single_fold;
          Alcotest.test_case "partial partitions preserved" `Quick
            test_fuse_preserves_partial_partition;
          Alcotest.test_case "pipeline fixpoint" `Quick
            test_pipeline_fixpoint_and_safety;
          Alcotest.test_case "O0 identity" `Quick test_pipeline_o0_identity
        ] );
      ( "specialise",
        [ Alcotest.test_case "clones generic callee" `Quick
            test_specialize_clones_generic;
          Alcotest.test_case "static rank for fusion" `Quick
            test_specialize_enables_static_rank;
          Alcotest.test_case "rejects unsafe narrowing" `Quick
            test_specialize_rejects_unsafe;
          Alcotest.test_case "pipeline preserves solver" `Quick
            test_specialize_in_pipeline_preserves ] );
      ( "stdlib",
        [ Alcotest.test_case "typechecks" `Quick test_stdlib_typechecks;
          Alcotest.test_case "basics" `Quick test_stdlib_basics;
          Alcotest.test_case "matmul" `Quick test_stdlib_matmul;
          Alcotest.test_case "optimises" `Quick test_stdlib_optimises ] );
      ("properties", qcheck_cases) ]
