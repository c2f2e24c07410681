(* Tests for the bytecode stage: golden disassembly listings pinning
   the [Bytecode.pp] format (blessed from files, never hand-edited), a
   differential suite running every shipped program through the
   tree-walking interpreter and the VM (kernels on, kernels off,
   1-lane, N-lane) asserting bitwise-identical values and statistics,
   adversarial fold bodies pinning the parallel fold-kernel path, a
   superinstruction on/off parity check, and error-message parity
   between the engines. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let value_testable = Alcotest.testable Sac.Value.pp Sac.Value.equal

let darr xs = Sac.Value.Vdarr (Tensor.Nd.of_list1 xs)
let vd x = Sac.Value.Vdbl x
let vi n = Sac.Value.Vint n

let compile ?(options = Sac.Pipeline.default_options) src =
  Sac.Pipeline.compile_bytecode ~options src

(* ------------------------------------------------------------------ *)
(* Golden disassembly listings                                         *)
(* ------------------------------------------------------------------ *)

(* The sources and their blessed -O0 listings live under
   test/golden/bytecode/ as NAME.sac / NAME.lst pairs.  When a change
   is supposed to move the encoding (a new opcode, a peephole pass),
   regenerate the listings with scripts/bless_bytecode.sh and commit
   the .lst diff with the change — never edit a .lst by hand.
   Compiled at -O0 so the listing pins the translation (including
   superinstruction fusion, which stays on at -O0), not the
   optimiser. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let golden_src name = read_file ("golden/bytecode/" ^ name ^ ".sac")
let golden_listing name = read_file ("golden/bytecode/" ^ name ^ ".lst")

(* scalar: constants, loads/stores, jumps (for/if), static and builtin
   calls, llbin/lcbin superinstructions with remapped jump targets.
   with-loops: genarray and fold descriptors, capture lists.
   overloads: dynamic dispatch and short-circuit jumps (whose targets
   block fusion). *)
let golden_names = [ "scalar"; "with-loops"; "overloads" ]

let test_golden_listings () =
  List.iter
    (fun name ->
      let _, bc, _ = compile ~options:Sac.Pipeline.o0 (golden_src name) in
      check_string
        (name ^ " (re-bless with scripts/bless_bytecode.sh if the \
                 encoding intentionally moved)")
        (golden_listing name)
        (Sac.Bytecode.to_string bc))
    golden_names

let test_report_summary () =
  let _, bc, report = compile Sacprog.Programs.euler_1d in
  let s =
    match report.Sac.Pipeline.bytecode with
    | Some s -> s
    | None -> Alcotest.fail "compile_bytecode must fill report.bytecode"
  in
  check_int "n_funcs" (Array.length bc.Sac.Bytecode.funcs) s.Sac.Bytecode.n_funcs;
  check_int "n_withs" (Array.length bc.Sac.Bytecode.withs) s.Sac.Bytecode.n_withs;
  check_int "n_consts" (Array.length bc.Sac.Bytecode.consts)
    s.Sac.Bytecode.n_consts;
  Alcotest.(check bool) "has instructions" true (s.Sac.Bytecode.n_instrs > 0)

(* The peephole must actually shrink the stream it claims to fuse. *)
let test_fusion_shrinks () =
  let instrs options src =
    let _, _, report = compile ~options src in
    match report.Sac.Pipeline.bytecode with
    | Some s -> s.Sac.Bytecode.n_instrs
    | None -> Alcotest.fail "no bytecode summary"
  in
  let src = golden_src "scalar" in
  let fused = instrs Sac.Pipeline.o0 src in
  let flat =
    instrs
      { Sac.Pipeline.o0 with Sac.Pipeline.do_superinstructions = false }
      src
  in
  Alcotest.(check bool)
    (Printf.sprintf "fused (%d) < unfused (%d)" fused flat)
    true (fused < flat)

(* ------------------------------------------------------------------ *)
(* Differential suite: interpreter vs VM                               *)
(* ------------------------------------------------------------------ *)

(* A case is a program plus a call sequence; [Prev] feeds the previous
   call's result through (solver programs build their state first). *)
type arg = V of Sac.Value.t | Prev

let run_seq runner seq =
  let last =
    List.fold_left
      (fun prev (name, args) ->
        let args =
          List.map (function V v -> v | Prev -> Option.get prev) args
        in
        Some (runner name args))
      None seq
  in
  Option.get last

(* Vm_lane1 pins the degenerate team: a 1-lane SPMD executor with a
   tiny threshold takes the parallel dispatch path but reduces a
   single lane slot.  Vm_parallel is the real N-lane path. *)
type engine = Interp | Vm | Vm_generic | Vm_lane1 | Vm_parallel

let engine_label = function
  | Interp -> "interp"
  | Vm -> "vm"
  | Vm_generic -> "vm-generic"
  | Vm_lane1 -> "vm-1lane"
  | Vm_parallel -> "vm-parallel"

let run_engine engine prog bc seq =
  match engine with
  | Interp ->
    let ctx = Sac.Eval.make_ctx prog in
    let r = run_seq (Sac.Eval.run_fun ctx) seq in
    (r, Sac.Eval.stats ctx)
  | Vm ->
    let ctx = Sac.Vm.make_ctx bc in
    let r = run_seq (Sac.Vm.run_fun ctx) seq in
    (r, Sac.Vm.stats ctx)
  | Vm_generic ->
    let ctx = Sac.Vm.make_ctx ~kernels:false bc in
    let r = run_seq (Sac.Vm.run_fun ctx) seq in
    (r, Sac.Vm.stats ctx)
  | Vm_lane1 ->
    let exec = Parallel.Exec.spmd ~lanes:1 in
    let ctx = Sac.Vm.make_ctx ~exec ~parallel_threshold:4 bc in
    let r = run_seq (Sac.Vm.run_fun ctx) seq in
    let s = Sac.Vm.stats ctx in
    (r, s)
  | Vm_parallel ->
    let exec = Parallel.Exec.spmd ~lanes:4 in
    let ctx = Sac.Vm.make_ctx ~exec ~parallel_threshold:4 bc in
    let r = run_seq (Sac.Vm.run_fun ctx) seq in
    let s = Sac.Vm.stats ctx in
    (r, s)

let vm_engines = [ Vm; Vm_generic; Vm_lane1; Vm_parallel ]

let tbl_sorted t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [])

let check_stats label (a : Sac.Eval.stats) (b : Sac.Eval.stats) =
  check_int (label ^ ": with_loops") a.Sac.Eval.with_loops
    b.Sac.Eval.with_loops;
  check_int (label ^ ": elements") a.Sac.Eval.elements b.Sac.Eval.elements;
  check_int (label ^ ": calls") a.Sac.Eval.calls b.Sac.Eval.calls;
  Alcotest.(check (list (pair string int)))
    (label ^ ": fun_calls")
    (tbl_sorted a.Sac.Eval.fun_calls)
    (tbl_sorted b.Sac.Eval.fun_calls);
  Alcotest.(check (list (pair string int)))
    (label ^ ": with_execs")
    (tbl_sorted a.Sac.Eval.with_execs)
    (tbl_sorted b.Sac.Eval.with_execs);
  Alcotest.(check (list (pair string int)))
    (label ^ ": fold_execs")
    (tbl_sorted a.Sac.Eval.fold_execs)
    (tbl_sorted b.Sac.Eval.fold_execs)

(* A rank-2 body with a column-invariant block (b[iv[1]] * 2.0) whose
   row-times-column index is not affine, so no load guard elides: a
   sequential fill below the 1024-element parallel threshold runs it on
   the scalar column-outer walk with every load checked. *)
let col_walk_checked_src =
  "double[.,.] f(double[.] a, double[.] b, int n) { return (with { \
   ([0,0] <= iv < [n,n]) : a[iv[0] * iv[1]] + b[iv[1]] * 2.0; } : \
   genarray([n,n], 0.0)); }"

(* Every shipped program, with entry calls small enough for a quick
   run, plus targeted sources exercising semantics the solvers don't:
   overload dispatch, integer folds, bool/vector kernels, fallback
   bodies the specialiser rejects. *)
let differential_cases =
  [ ( "dfdx",
      Sacprog.Programs.df_dx_no_boundary,
      [ ("dfDxNoBoundary", [ V (darr [ 1.; 2.; 4.; 8. ]); V (vd 0.5) ]) ] );
    ( "getdt",
      Sacprog.Programs.get_dt,
      [ ( "getDt",
          [ V (darr [ 0.5; -1. ]); V (darr [ 1.; 1. ]);
            V (darr [ 1.; 0.5 ]); V (vd 1.4); V (vd 0.01); V (vd 0.5) ] ) ] );
    ( "euler1d",
      Sacprog.Programs.euler_1d,
      [ ("sod_init", [ V (vi 32) ]);
        ( "run",
          [ Prev; V (vi 5); V (vd 1.4); V (vd (1. /. 32.)); V (vd 0.5) ] ) ] );
    ( "euler2d",
      Sacprog.Programs.euler_2d,
      [ ("quadrant_init", [ V (vi 8) ]);
        ( "run2",
          [ Prev; V (vi 2); V (vd 1.4); V (vd 0.125); V (vd 0.125);
            V (vd 0.5) ] ) ] );
    ( "poisson1d",
      Sacprog.Programs.poisson_1d,
      [ ("poisson1d", [ V (darr [ 1.; 2.; 3.; 4.; 5. ]); V (vd 0.1) ]) ] );
    ( "overloads",
      golden_src "overloads",
      [ ("h", [ V (Sac.Value.Vbool true); V (Sac.Value.Vbool false);
                V (vd 2.0) ]) ] );
    ( "int-fold",
      "double f(int n) { return (1.0 * (with { ([0] <= iv < [n]) : iv[0] \
       * iv[0]; } : fold(+, 0))); }",
      [ ("f", [ V (vi 100) ]) ] );
    ( "mixed-cond-kernel",
      (* int-vs-double conditional arms: the specialiser must bail to
         the generic body, which still has to match the interpreter. *)
      "double[.] f(int n) { return (with { ([0] <= iv < [n]) : 1.0 * \
       (iv[0] > 2 ? 1 : 0.5); } : genarray([n], 0.0)); }",
      [ ("f", [ V (vi 9) ]) ] );
    ( "nested-with",
      "double[.,.] f(int n) { return (with { ([0,0] <= iv < [n,n]) : \
       (with { ([0] <= jv < [n]) : 1.0 * (iv[0] + jv[0]); } : fold(+, \
       0.0)); } : genarray([n,n], 0.0)); }",
      [ ("f", [ V (vi 7) ]) ] );
    ( "nested-with-48",
      (* The same nest at 2,304 outer elements: under the parallel
         engine every lane runs inner with-loops and function calls
         concurrently, so unsynchronised statistics lose updates on
         almost every run. *)
      "double g(double x) { return (x + 1.0); } double[.,.] f(int n) { \
       return (with { ([0,0] <= iv < [n,n]) : (with { ([0] <= jv < [n]) \
       : g(1.0 * (iv[0] + jv[0])); } : fold(+, 0.0)); } : genarray([n,n], \
       0.0)); }",
      [ ("f", [ V (vi 48) ]) ] );
    ( "modarray",
      "double[.] f(double[.] v) { return (with { ([1] <= iv < [3]) : \
       v[iv] * 10.0; } : modarray(v)); }",
      [ ("f", [ V (darr [ 1.; 2.; 3.; 4. ]) ]) ] );
    ( "builtin-heavy",
      "double f(double[.] v) { return (maxval(fabs(v)) + minval(v) + \
       sum(sqrt(fabs(v)))); }",
      [ ("f", [ V (darr [ -4.; 9.; -16. ]) ]) ] );
    ( "col-walk-branchy",
      (* rank 2 below the parallel threshold, with a column block
         (b[iv[1]] * 0.5) and arms that load, so the conditional
         branches: the per-element block cannot be batched and the
         sequential column-outer walk runs it. *)
      "double[.,.] f(double[.] a, double[.] b, int n) { return (with { \
       ([0,0] <= iv < [n,7]) : (a[iv[0]] > b[iv[1]] * 0.5 ? a[iv[0]] - \
       b[iv[1] + 1] : b[iv[1]] * a[iv[0]]); } : genarray([n,7], 0.0)); }",
      [ ( "f",
          [ V (darr [ 0.1; 0.9; 0.4; 2.0; -1.0 ]);
            V (darr [ 0.3; 1.5; -0.2; 0.8; 4.0; 0.0; 1.1; 0.6 ]);
            V (vi 5) ] ) ] );
    ( "col-walk-checked-loads",
      col_walk_checked_src,
      [ ( "f",
          [ V (darr (List.init 10 (fun i -> float_of_int (i * i) /. 7.)));
            V (darr [ 1.0; -2.5; 0.25; 3.0 ]);
            V (vi 4) ] ) ] ) ]

(* Adversarial fold bodies, sized past the test threshold (4) and the
   production default (1024) so the parallel engines genuinely
   dispatch them.  Sum stays lane-ordered-sequential (non-associative
   float addition), max/min take the parallel kernel path, the empty
   range must yield the init everywhere, the neutral-only case checks
   the per-lane init seeding is absorbed by idempotence, and rank-2
   exercises the odometer/column path under lane partitioning. *)
let fold_cases =
  [ ( "fold-nonassoc-sum",
      "double f(int n) { return (with { ([0] <= iv < [n]) : 1.0 / (1.0 * \
       iv[0] + 1.0); } : fold(+, 0.0)); }",
      [ ("f", [ V (vi 3000) ]) ] );
    ( "fold-max-parallel",
      "double f(int n) { return (with { ([0] <= iv < [n]) : fabs(1.0 * \
       iv[0] - 1999.5); } : fold(max, 0.0)); }",
      [ ("f", [ V (vi 4000) ]) ] );
    ( "fold-min-parallel",
      "double f(int n) { return (with { ([0] <= iv < [n]) : fabs(1.0 * \
       iv[0] - 1999.5); } : fold(min, 1000000.0)); }",
      [ ("f", [ V (vi 4000) ]) ] );
    ( "fold-empty-range",
      "double f(int n) { return (with { ([n] <= iv < [n]) : 1.0 * iv[0]; \
       } : fold(max, 3.5)); }",
      [ ("f", [ V (vi 7) ]) ] );
    ( "fold-neutral-only",
      (* init dominates every element: the parallel reduction seeds
         every lane slot with init, which max absorbs. *)
      "double f(int n) { return (with { ([0] <= iv < [n]) : 0.0 - \
       1000000000.0; } : fold(max, 1000000000.0)); }",
      [ ("f", [ V (vi 64) ]) ] );
    ( "fold-rank2",
      "double f(int n) { return (with { ([0,0] <= iv < [n,n]) : fabs(1.0 \
       * (iv[0] * 7 - iv[1] * 3)); } : fold(max, 0.0)); }",
      [ ("f", [ V (vi 80) ]) ] );
    ( "fold-rank2-col-sum",
      (* rank-2 sum whose body splits into a column block (everything
         on b[iv[1]]) and per-element code: the sum keeps the
         sequential row-major walk under every engine, so the column
         block's values must combine in exactly the interpreter's
         order. *)
      "double f(double[.] a, double[.] b, int n) { return (with { \
       ([0,0] <= iv < [n,9]) : a[iv[0]] * sqrt(fabs(b[iv[1]]) + 1.0) + \
       b[iv[1]] / 3.0; } : fold(+, 0.0)); }",
      [ ( "f",
          [ V (darr (List.init 12 (fun i -> float_of_int (i * i) /. 7.)));
            V (darr (List.init 9 (fun j -> sin (float_of_int j))));
            V (vi 12) ] ) ] );
    ( "fold-generic-body",
      (* a user call the specialiser cannot thread at -O0: the generic
         body must still agree (at default options inlining usually
         recovers the kernel — both must match the interpreter). *)
      "double g(double x) { return (x * 2.0); } double f(int n) { return \
       (with { ([0] <= iv < [n]) : g(1.0 * iv[0]); } : fold(max, 0.0)); }",
      [ ("f", [ V (vi 2000) ]) ] ) ]

let all_cases = differential_cases @ fold_cases

let test_differential () =
  List.iter
    (fun (label, src, seq) ->
      let prog, bc, _ = compile src in
      let r0, s0 = run_engine Interp prog bc seq in
      List.iter
        (fun e ->
          let r, s = run_engine e prog bc seq in
          let l = label ^ "/" ^ engine_label e in
          Alcotest.check value_testable l r0 r;
          check_stats l s0 s)
        vm_engines)
    all_cases

(* -O0 bytecode must agree too: the optimiser rewrites many forms the
   lowering otherwise sees (no folding, no unrolling). *)
let test_differential_o0 () =
  List.iter
    (fun (label, src, seq) ->
      let prog, bc, _ = compile ~options:Sac.Pipeline.o0 src in
      let r0, _ = run_engine Interp prog bc seq in
      let r1, _ = run_engine Vm prog bc seq in
      Alcotest.check value_testable (label ^ "/O0") r0 r1)
    all_cases

(* Superinstructions are an encoding detail: values AND the observable
   statistics (per-function call counts, with-loop and fold execution
   counts) must be identical with fusion on and off, and both must
   match the interpreter. *)
let test_superinstructions_transparent () =
  let off =
    { Sac.Pipeline.default_options with
      Sac.Pipeline.do_superinstructions = false }
  in
  List.iter
    (fun (label, src, seq) ->
      let prog, bc_on, _ = compile src in
      let _, bc_off, _ = compile ~options:off src in
      let r0, s0 = run_engine Interp prog bc_on seq in
      let r_on, s_on = run_engine Vm prog bc_on seq in
      let r_off, s_off = run_engine Vm prog bc_off seq in
      Alcotest.check value_testable (label ^ "/fused") r0 r_on;
      Alcotest.check value_testable (label ^ "/unfused") r0 r_off;
      check_stats (label ^ "/fused") s0 s_on;
      check_stats (label ^ "/unfused") s0 s_off)
    all_cases

(* Every fold in euler_1d (the CFL reduction) is specialisable, so the
   VM must take the fold-kernel path for each execution. *)
let test_fold_kernel_counter () =
  let _, bc, _ = compile Sacprog.Programs.euler_1d in
  let ctx = Sac.Vm.make_ctx bc in
  let _ =
    run_seq (Sac.Vm.run_fun ctx)
      [ ("sod_init", [ V (vi 32) ]);
        ( "run",
          [ Prev; V (vi 5); V (vd 1.4); V (vd (1. /. 32.)); V (vd 0.5) ] ) ]
  in
  let s = Sac.Vm.stats ctx in
  let folds =
    Hashtbl.fold (fun _ n acc -> acc + n) s.Sac.Eval.fold_execs 0
  in
  Alcotest.(check bool) "folds executed" true (folds > 0);
  check_int "every fold took the kernel path" folds
    (Sac.Vm.fold_kernel_execs ctx)

(* ------------------------------------------------------------------ *)
(* Error-message parity                                                *)
(* ------------------------------------------------------------------ *)

let outcome_of f =
  try
    ignore (f ());
    "ok"
  with
  | Sac.Eval.Error m -> "Eval.Error: " ^ m
  | Division_by_zero -> "Division_by_zero"
  | Sac.Value.Type_error m -> "Type_error: " ^ m

let error_cases =
  [ ( "oob",
      "double f(double[.] v) { return (v[10]); }",
      "f",
      [ darr [ 1.; 2. ] ] );
    ( "oob-kernel",
      "double[.] f(double[.] v, int n) { return (with { ([0] <= iv < \
       [n]) : v[iv[0] + 100]; } : genarray([n], 0.0)); }",
      "f",
      [ darr [ 1.; 2.; 3. ]; vi 3 ] );
    ( "div-by-zero",
      "int f(int n) { return (5 / n); }",
      "f",
      [ vi 0 ] );
    ( "div-by-zero-kernel",
      "double[.] f(int n) { return (with { ([0] <= iv < [n]) : 1.0 * \
       (5 / (iv[0] - iv[0])); } : genarray([n], 0.0)); }",
      "f",
      [ vi 4 ] );
    ( "fold-div-by-zero",
      "double f(int n) { return (with { ([0] <= iv < [n]) : 1.0 * (5 / \
       (iv[0] - iv[0])); } : fold(max, 0.0)); }",
      "f",
      [ vi 64 ] );
    ( "fold-oob",
      "double f(double[.] v, int n) { return (with { ([0] <= iv < [n]) \
       : v[iv[0] + 100]; } : fold(+, 0.0)); }",
      "f",
      [ darr [ 1.; 2.; 3. ]; vi 8 ] );
    ( "col-walk-oob",
      (* [a] is one short: only element [3,3] indexes out of range, so
         the column-outer visit order cannot change which error
         surfaces. *)
      col_walk_checked_src,
      "f",
      [ darr (List.init 9 float_of_int); darr [ 1.0; -2.5; 0.25; 3.0 ];
        vi 4 ] );
    ( "unknown-function",
      "double f(double x) { return (x); }",
      "nope",
      [ vd 1.0 ] );
    ( "no-instance",
      "double f(double x) { return (x); }",
      "f",
      [ vd 1.0; vd 2.0 ] ) ]

let test_error_parity () =
  List.iter
    (fun (label, src, name, args) ->
      let prog, bc, _ = compile src in
      let interp =
        outcome_of (fun () ->
            Sac.Eval.run_fun (Sac.Eval.make_ctx prog) name args)
      in
      let vm =
        outcome_of (fun () -> Sac.Vm.run_fun (Sac.Vm.make_ctx bc) name args)
      in
      check_string label interp vm;
      Alcotest.(check bool) (label ^ " errors") true (interp <> "ok"))
    error_cases

(* The parallel fold path must park and re-raise a lane's exception
   with the same outcome as a sequential run.  Only the
   division-by-zero body is pinned here: every element raises the same
   exception, so which lane parks first cannot change the message. *)
let test_error_parity_parallel_fold () =
  let label, src, name, args =
    List.find (fun (l, _, _, _) -> l = "fold-div-by-zero") error_cases
  in
  let prog, bc, _ = compile src in
  let interp =
    outcome_of (fun () -> Sac.Eval.run_fun (Sac.Eval.make_ctx prog) name args)
  in
  let exec = Parallel.Exec.spmd ~lanes:4 in
  let vm =
    outcome_of (fun () ->
        Sac.Vm.run_fun
          (Sac.Vm.make_ctx ~exec ~parallel_threshold:4 bc)
          name args)
  in
  check_string (label ^ "/parallel") interp vm

(* ------------------------------------------------------------------ *)
(* Runner / backend plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_runner_engines_agree () =
  let compiled = Sacprog.Runner.compile_euler_1d () in
  let _, q_vm = Sacprog.Runner.sod_state compiled ~nx:24 ~steps:4 in
  let _, q_in =
    Sacprog.Runner.sod_state ~engine:`Interp compiled ~nx:24 ~steps:4
  in
  Alcotest.(check (float 0.))
    "sod VM = interpreter (bitwise)" 0.
    (Sacprog.Runner.max_abs_diff q_vm q_in)

(* A tiny threshold must not move the numerics: the runner option only
   changes which execution strategy computes the same bits. *)
let test_runner_par_threshold () =
  let compiled = Sacprog.Runner.compile_euler_1d () in
  let _, q_default = Sacprog.Runner.sod_state compiled ~nx:24 ~steps:4 in
  let exec = Parallel.Exec.spmd ~lanes:3 in
  let _, q_low =
    Sacprog.Runner.sod_state ~exec ~parallel_threshold:2 compiled ~nx:24
      ~steps:4
  in
  Alcotest.(check (float 0.))
    "sod par-threshold 2 = default (bitwise)" 0.
    (Sacprog.Runner.max_abs_diff q_default q_low)

let () =
  Alcotest.run "bytecode"
    [ ( "disassembly",
        [ Alcotest.test_case "golden listings" `Quick test_golden_listings;
          Alcotest.test_case "report summary" `Quick test_report_summary;
          Alcotest.test_case "fusion shrinks" `Quick test_fusion_shrinks ] );
      ( "differential",
        [ Alcotest.test_case "interpreter vs VM" `Quick test_differential;
          Alcotest.test_case "at -O0" `Quick test_differential_o0;
          Alcotest.test_case "superinstructions transparent" `Quick
            test_superinstructions_transparent;
          Alcotest.test_case "fold kernel counter" `Quick
            test_fold_kernel_counter;
          Alcotest.test_case "error parity" `Quick test_error_parity;
          Alcotest.test_case "parallel fold error parity" `Quick
            test_error_parity_parallel_fold;
          Alcotest.test_case "runner engines" `Quick
            test_runner_engines_agree;
          Alcotest.test_case "runner par-threshold" `Quick
            test_runner_par_threshold ] ) ]
