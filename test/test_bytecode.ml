(* Tests for the bytecode stage: golden disassembly listings pinning
   the [Bytecode.pp] format (blessed from files, never hand-edited), a
   differential suite running every shipped program through the
   tree-walking interpreter and the VM (kernels on, kernels off,
   1-lane, N-lane, sequential executor, 2-lane fork/join) asserting
   bitwise-identical values and statistics,
   adversarial fold bodies pinning the parallel fold-kernel path,
   lane-split cases cutting with-loops into per-lane boxes, a
   superinstruction on/off parity check, and error-message parity
   between the engines. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Bit-level equality: NaN matches NaN and -0.0 differs from 0.0,
   which [Sac.Value.equal] (float [=]) would not tell apart. *)
let bits_equal a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Sac.Value.Vdbl x, Sac.Value.Vdbl y -> same x y
  | Sac.Value.Vdarr x, Sac.Value.Vdarr y ->
    Tensor.Nd.shape x = Tensor.Nd.shape y
    && Array.for_all2 same x.Tensor.Nd.data y.Tensor.Nd.data
  | _ -> Sac.Value.equal a b

let bits_testable = Alcotest.testable Sac.Value.pp bits_equal

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

(* The embedded Euler programs under the paper's options: the
   optimised program and its bytecode, blessed into NAME.opt.lst.
   These pin the optimiser's output, so a change meant to make it
   cheaper must leave them byte-identical.  As in an expected-
   instruction-list test, the line count is checked first (a cheap
   "how much moved" signal), then every line. *)
let optimised_listing (name, src) =
  let prog, bc, _ = compile src in
  ( name,
    Sac.Pretty.program_to_string prog ^ Sac.Bytecode.to_string bc )

let euler_programs =
  [ ("euler1d", Sacprog.Programs.euler_1d);
    ("euler2d", Sacprog.Programs.euler_2d) ]

let test_golden_optimised () =
  List.iter
    (fun (name, actual) ->
      let expected = golden_listing (name ^ ".opt") in
      let lines s = String.split_on_char '\n' s in
      check_int (name ^ " listing lines")
        (List.length (lines expected)) (List.length (lines actual));
      Alcotest.(check (list string))
        (name ^ " (re-bless with scripts/bless_bytecode.sh only if the \
                 optimiser's output is meant to move)")
        (lines expected) (lines actual))
    (List.map optimised_listing euler_programs)

(* Generated names come from a per-domain counter restarted by each
   compile, so a compile's output depends only on its source and
   options: not on earlier compiles, nor on the domain it runs on. *)
let test_compile_deterministic () =
  List.iter
    (fun (name, src) ->
      let first = optimised_listing (name, src) in
      let again = optimised_listing (name, src) in
      let elsewhere =
        Domain.join (Domain.spawn (fun () -> optimised_listing (name, src)))
      in
      check_string (name ^ " recompiled") (snd first) (snd again);
      check_string (name ^ " on a spawned domain") (snd first)
        (snd elsewhere);
      let _, bc1, _ = compile src and _, bc2, _ = compile src in
      Alcotest.(check bool) (name ^ " bytecode structurally equal") true
        (bc1 = bc2))
    euler_programs

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
   single lane slot.  Vm_parallel is the real N-lane path.  Vm_seq
   opens the same regions on the sequential executor (one box, lane
   0), and Vm_fork_join cuts every parallel with-loop into two lane
   boxes on the fork/join scheduler. *)
type engine =
  | Interp
  | Vm
  | Vm_generic
  | Vm_lane1
  | Vm_parallel
  | Vm_seq
  | Vm_fork_join

let engine_label = function
  | Interp -> "interp"
  | Vm -> "vm"
  | Vm_generic -> "vm-generic"
  | Vm_lane1 -> "vm-1lane"
  | Vm_parallel -> "vm-parallel"
  | Vm_seq -> "vm-seq-exec"
  | Vm_fork_join -> "vm-forkjoin-2"

(* The executor of an engine that runs with one (threshold 4). *)
let engine_exec = function
  | Vm_lane1 -> Parallel.Exec.spmd ~lanes:1
  | Vm_parallel -> Parallel.Exec.spmd ~lanes:4
  | Vm_seq -> Parallel.Exec.sequential ()
  | Vm_fork_join -> Parallel.Exec.fork_join ~lanes:2
  | Interp | Vm | Vm_generic -> invalid_arg "engine_exec"

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
  | Vm_lane1 | Vm_parallel | Vm_seq | Vm_fork_join ->
    let exec = engine_exec engine in
    let ctx = Sac.Vm.make_ctx ~exec ~parallel_threshold:4 bc in
    let r = run_seq (Sac.Vm.run_fun ctx) seq in
    (r, Sac.Vm.stats ctx)

let vm_engines = [ Vm; Vm_generic; Vm_lane1; Vm_parallel; Vm_seq; Vm_fork_join ]

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

(* Lane-split cases.  The executor engines cut every with-loop past
   the threshold into lane boxes along its widest dimension, and each
   box runs the sequential walk; max/min fold boxes combine in lane
   order, other folds stay sequential. *)
let split_sum_src =
  "double f(double[.] v, int n) { return (with { ([0] <= iv < [n]) : \
   v[iv[0]]; } : fold(+, 0.0)); }"

let split_max_src =
  "double f(double[.] v, int n) { return (with { ([0] <= iv < [n]) : \
   v[iv[0]]; } : fold(max, -1.0)); }"

let split_cases =
  [ ( "split-3xn-fill",
      (* widest dimension is 1: column boxes holding all three rows *)
      "double[.,.] f(double[.] a, int n) { return (with { ([0,0] <= iv < \
       [3,n]) : a[iv[1]] * (1.0 * iv[0] + 0.5) - 1.0 * iv[1]; } : \
       genarray([3,n], 0.0)); }",
      [ ("f", [ V (darr (List.init 11 (fun i -> sin (float_of_int i))));
                V (vi 11) ]) ] );
    ( "split-nx3-fill",
      (* widest dimension is 0: row boxes *)
      "double[.,.] f(double[.] a, int n) { return (with { ([0,0] <= iv < \
       [n,3]) : a[iv[0]] * (1.0 * iv[1] + 0.5) - 1.0 * iv[0]; } : \
       genarray([n,3], 0.0)); }",
      [ ("f", [ V (darr (List.init 11 (fun i -> cos (float_of_int i))));
                V (vi 11) ]) ] );
    ( "split-narrow-box",
      (* widest extent 3 is below the 4-lane team, so 3 boxes; each
         starts its rank-3 odometer at its own corner, inside a
         partition that does not start at the origin (the body leaves
         out iv[2], which would give it a column block) *)
      "double[.,.,.] f(int n) { return (with { ([0,1,0] <= iv < [2,n,2]) \
       : 1.0 * (iv[0] * 100 + iv[1] * 10); } : genarray([2,n+1,2], -1.0)); \
       }",
      [ ("f", [ V (vi 4) ]) ] );
    ( "split-clamped-guards",
      (* index max(min(iv[0] + 1, iv[1] / 2), 0): the column clamp keeps
         it in range, but the load guard can only use the row bound
         iv[0] + 1 < 12.  That holds on every box but the one holding
         the last row (unchecked strips), and that box runs the
         checked column-outer walk. *)
      "double[.,.] f(double[.] a, int n, int m) { return (with { ([0,0] \
       <= iv < [n,m]) : a[max(min(iv[0] + 1, iv[1] / 2), 0)] * 2.0 + 1.0 * \
       iv[1]; } : genarray([n,m], 0.0)); }",
      [ ("f", [ V (darr (List.init 12 (fun i -> float_of_int (i * i) /. 3.)));
                V (vi 12); V (vi 5) ]) ] );
    ( "split-fold-max-col",
      (* rank-2 max fold with a column block, cut on its 9 columns: each
         box memoises its own columns, and the maximum sits in the last
         column *)
      "double f(double[.] a, double[.] b, int n) { return (with { ([0,0] \
       <= iv < [n,9]) : a[iv[0]] * sqrt(fabs(b[iv[1]]) + 1.0) - b[iv[1]] \
       / 3.0; } : fold(max, -1000.0)); }",
      [ ( "f",
          [ V (darr [ 0.3; -1.2; 2.5; 0.0; 1.7 ]);
            V (darr (List.init 9 (fun j ->
                  if j = 8 then -30.0 else cos (float_of_int (3 * j)))));
            V (vi 5) ] ) ] );
    ( "split-fold-max-nan",
      split_max_src,
      [ ( "f",
          [ V (darr [ 0.0; -0.0; 1.0; 2.0; -3.0; 0.5; Float.nan; -0.0; 4.0;
                      0.0 ]);
            V (vi 10) ] ) ] );
    ( "split-fold-max-signed-zero",
      (* every element is -0.0 but the last: only the last box turns the
         maximum into +0.0 *)
      split_max_src,
      [ ("f", [ V (darr (List.init 10 (fun i -> if i = 9 then 0.0 else -0.0)));
                V (vi 10) ]) ] );
    ( "split-fold-sum-rounding",
      (* 1e16 absorbs each following 1.0 in a left fold: the sequential
         sum is 5.0, any cut at the middle gives another value *)
      split_sum_src,
      [ ( "f",
          [ V (darr (List.init 12 (fun i ->
                  if i = 0 then 1e16 else if i = 6 then -1e16 else 1.0)));
            V (vi 12) ] ) ] ) ]

let all_cases = differential_cases @ fold_cases @ split_cases

let test_differential () =
  List.iter
    (fun (label, src, seq) ->
      let prog, bc, _ = compile src in
      let r0, s0 = run_engine Interp prog bc seq in
      List.iter
        (fun e ->
          let r, s = run_engine e prog bc seq in
          let l = label ^ "/" ^ engine_label e in
          Alcotest.check bits_testable l r0 r;
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
      Alcotest.check bits_testable (label ^ "/O0") r0 r1)
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
      Alcotest.check bits_testable (label ^ "/fused") r0 r_on;
      Alcotest.check bits_testable (label ^ "/unfused") r0 r_off;
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

(* Errors under the lane split: only the last box reaches the failing
   element, so every engine must raise the interpreter's error. *)
let split_error_cases =
  [ ( "split-oob-last-box",
      "double[.] f(double[.] v, int n) { return (with { ([0] <= iv < [n]) \
       : v[iv[0] + 1]; } : genarray([n], 0.0)); }",
      "f",
      [ darr (List.init 10 float_of_int); vi 10 ] ) ]
  @ List.filter (fun (l, _, _, _) -> l = "col-walk-oob") error_cases

let test_error_parity_split () =
  List.iter
    (fun (label, src, name, args) ->
      let prog, bc, _ = compile src in
      let interp =
        outcome_of (fun () ->
            Sac.Eval.run_fun (Sac.Eval.make_ctx prog) name args)
      in
      Alcotest.(check bool) (label ^ " errors") true (interp <> "ok");
      List.iter
        (fun e ->
          let vm =
            outcome_of (fun () -> run_engine e prog bc [ (name, List.map (fun v -> V v) args) ])
          in
          check_string (label ^ "/" ^ engine_label e) interp vm)
        vm_engines)
    split_error_cases

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

(* ------------------------------------------------------------------ *)
(* With-loop result recycling                                          *)
(* ------------------------------------------------------------------ *)

(* The VM reuses the payloads of a call's dead full-cover with-loop
   results in later calls.  These pin that nothing a caller still holds
   is ever reused: earlier results keep their bits, results that leave
   a call through a callee or a reshape are not recycled, a call that
   raises pools nothing, and the recycled Sod march still equals the
   interpreter and the 2-lane run bit for bit. *)

let payload v = (Sac.Value.to_tensor v).Tensor.Nd.data

(* The result and a private copy of its bits, taken as it returns. *)
let snapshot v = (v, Sac.Value.Vdarr (Tensor.Nd.copy (Sac.Value.to_tensor v)))

let check_snapshots label snaps =
  List.iteri
    (fun i (v, copy) ->
      Alcotest.check bits_testable
        (Printf.sprintf "%s: result %d unchanged" label (i + 1))
        copy v)
    snaps;
  List.iteri
    (fun i (a, _) ->
      List.iteri
        (fun j (b, _) ->
          if i < j && payload a == payload b then
            Alcotest.failf "%s: results %d and %d share a payload" label
              (i + 1) (j + 1))
        snaps)
    snaps

(* [steps] Sod steps of [nx] cells through the engine's entry points,
   one call per dt and per step, so every step recycles the last one's
   dead results.  Returns each step's state. *)
let sod_march run ~nx ~steps =
  let gam = vd Euler.Gas.gamma_air and dx = vd (1. /. float_of_int nx) in
  let q = ref (run "sod_init" [ vi nx ]) in
  let out = ref [] in
  for _ = 1 to steps do
    let dt = run "dt_of" [ !q; gam; dx; vd 0.5 ] in
    q := run "step_dt" [ !q; dt; gam; dx ];
    out := !q :: !out
  done;
  List.rev !out

let euler_1d_bc () =
  (Sacprog.Runner.compile_euler_1d ()).Sacprog.Runner.bytecode

let test_recycle_earlier_results () =
  let ctx = Sac.Vm.make_ctx (euler_1d_bc ()) in
  let run name args = snapshot (Sac.Vm.run_fun ctx name args) in
  let gam = vd Euler.Gas.gamma_air and dx = vd (1. /. 64.) in
  let q0 = Sac.Vm.run_fun ctx "sod_init" [ vi 64 ] in
  let step (q, _) = run "step_dt" [ q; vd 1e-3; gam; dx ] in
  let s1 = step (q0, q0) in
  let s2 = step s1 in
  let s3 = step s2 in
  check_snapshots "step_dt" [ s1; s2; s3 ]

(* -O0 keeps [inner] a real callee. *)
let escape_src =
  {|
double[.] inner(int n, double x) {
  return (with { ([0] <= iv < [n]) : x; } : genarray([n], 0.0));
}
double[.] outer(int n, double x) { return (inner(n, x)); }
double[.,.] shaped(int n, double x) { return (reshape([2, n], inner(2 * n, x))); }
double[.] twice(int n, double x) {
  a = inner(n, x);
  return (with { ([0] <= iv < [n]) : 2.0 * a[iv]; } : genarray([n], 0.0));
}
double[.] bad(int n, double x) {
  a = inner(n, x);
  return (with { ([0] <= iv < [n]) : a[iv[0] + 1]; } : genarray([n], 0.0));
}
|}

let escape_ctxs () =
  let _, bc, _ = compile ~options:Sac.Pipeline.o0 escape_src in
  [ ("sequential", Sac.Vm.make_ctx bc);
    ( "2-lane",
      Sac.Vm.make_ctx ~exec:(Parallel.Exec.spmd ~lanes:2)
        ~parallel_threshold:4 bc ) ]

let test_recycle_escapes () =
  List.iter
    (fun (label, ctx) ->
      let run f x = snapshot (Sac.Vm.run_fun ctx f [ vi 16; vd x ]) in
      let rs =
        [ run "outer" 1.; run "outer" 2.; run "shaped" 3.; run "twice" 4.;
          run "shaped" 5.; run "twice" 6.; run "outer" 7. ]
      in
      check_snapshots label rs;
      List.iteri
        (fun i (v, _) ->
          let want = [| 1.; 2.; 3.; 8.; 5.; 12.; 7. |].(i) in
          if Array.exists (fun x -> x <> want) (payload v) then
            Alcotest.failf "%s: result %d is not all %g" label (i + 1) want)
        rs)
    (escape_ctxs ())

let test_recycle_after_raise () =
  List.iter
    (fun (label, ctx) ->
      let run f x = snapshot (Sac.Vm.run_fun ctx f [ vi 16; vd x ]) in
      let r1 = run "twice" 1. in
      let r2 = run "outer" 2. in
      let raised f =
        check_string (label ^ ": " ^ f ^ " raises")
          "Eval.Error: index out of bounds"
          (outcome_of (fun () -> Sac.Vm.run_fun ctx f [ vi 16; vd 9. ]))
      in
      raised "bad";
      let r3 = run "twice" 3. in
      raised "bad";
      raised "bad";
      let r4 = run "outer" 4. and r5 = run "twice" 5. in
      let r6 = run "shaped" 6. in
      check_snapshots label [ r1; r2; r3; r4; r5; r6 ])
    (escape_ctxs ())

(* Recycling moves no bits: the marched Sod states equal the
   interpreter's and the 2-lane VM's at every step.  400 cells puts the
   [3, n] with-loops over the default threshold, so the 2-lane run
   cuts them into lane boxes. *)
let test_recycle_sod_bitwise () =
  let compiled = Sacprog.Runner.compile_euler_1d () in
  let bc = compiled.Sacprog.Runner.bytecode in
  let nx = 400 and steps = 6 in
  let interp =
    sod_march
      (Sac.Eval.run_fun (Sac.Eval.make_ctx compiled.Sacprog.Runner.program))
      ~nx ~steps
  in
  List.iter
    (fun (label, ctx) ->
      List.iteri
        (fun i (a, b) ->
          Alcotest.check bits_testable
            (Printf.sprintf "%s step %d = interpreter" label (i + 1))
            a b)
        (List.combine interp (sod_march (Sac.Vm.run_fun ctx) ~nx ~steps)))
    [ ("vm", Sac.Vm.make_ctx bc);
      ("vm 2-lane", Sac.Vm.make_ctx ~exec:(Parallel.Exec.spmd ~lanes:2) bc) ]

(* ------------------------------------------------------------------ *)
(* Allocation pins                                                     *)
(* ------------------------------------------------------------------ *)

(* Minor words (exact, the orchestrating domain's) and words allocated
   directly in the major heap, per Sod step (dt_of + step_dt) of [nx]
   cells, after warm-up steps that compile the kernels and fill the
   buffer pool. *)
let sod_step_words ?exec nx =
  let ctx = Sac.Vm.make_ctx ?exec (euler_1d_bc ()) in
  let run = Sac.Vm.run_fun ctx in
  let gam = vd Euler.Gas.gamma_air and dx = vd (1. /. float_of_int nx) in
  let q = ref (run "sod_init" [ vi nx ]) in
  let step () =
    let dt = run "dt_of" [ !q; gam; dx; vd 0.5 ] in
    q := run "step_dt" [ !q; dt; gam; dx ]
  in
  for _ = 1 to 3 do step () done;
  let steps = 20 in
  (* [Gc.counters] is exact for this domain ([Gc.quick_stat] only
     samples at collections), but it boxes its words unrooted: an
     empty minor heap keeps a collection from falling inside it, and
     brings the promoted count up to date. *)
  let direct () =
    Gc.minor ();
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let d0 = direct () in
  let w0 = Parallel.Exec.gc_words () in
  for _ = 1 to steps do step () done;
  let w1 = Parallel.Exec.gc_words () in
  let d1 = direct () in
  let per x = x /. float_of_int steps in
  (per (w1.minor -. w0.minor), per (d1 -. d0))

(* The Sod VM step allocates nothing per cell: minor words stay a
   small constant (the boxed batched int compares once cost 73 per
   cell), and the only direct major allocation is the returned state,
   3 * nx floats (the step's dead with-loop results are recycled). *)
let test_sod_step_words () =
  List.iter
    (fun (label, exec) ->
      let m400, d400 = sod_step_words ?exec 400 in
      let m4000, d4000 = sod_step_words ?exec 4000 in
      let msg =
        Printf.sprintf
          "%s: %.0f minor words/step at nx 400, %.0f at 4000; direct major \
           %.0f at 400, %.0f at 4000"
          label m400 m4000 d400 d4000
      in
      Alcotest.(check bool) (msg ^ ": minor <= 8192") true
        (m400 <= 8192. && m4000 <= 8192.);
      Alcotest.(check bool) (msg ^ ": minor flat in nx") true
        (m4000 <= m400 +. 1024.);
      List.iter
        (fun (nx, d) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: direct major at nx %d <= one state" msg nx)
            true
            (d <= float_of_int ((3 * nx) + 256)))
        [ (400, d400); (4000, d4000) ])
    [ ("sequential", None); ("spmd 2", Some (Parallel.Exec.spmd ~lanes:2)) ]

(* The 2D port's rank-3 loads (the generic [KLoad]) allocate nothing
   per element: a few words per cell per step of fixed costs at 32²,
   where a closure and a ref per load once cost over 1,000. *)
let test_quadrant_step_words () =
  let bc = (Sacprog.Runner.compile_euler_2d ()).Sacprog.Runner.bytecode in
  let ctx = Sac.Vm.make_ctx bc in
  let n = 32 and steps = 2 in
  let q0 = Sac.Vm.run_fun ctx "quadrant_init" [ vi n ] in
  let d = vd (1. /. float_of_int n) in
  let run k =
    ignore
      (Sac.Vm.run_fun ctx "run2"
         [ q0; vi k; vd Euler.Gas.gamma_air; d; d; vd 0.5 ])
  in
  run 1;
  let w0 = Parallel.Exec.gc_words () in
  run steps;
  let w1 = Parallel.Exec.gc_words () in
  let per_cell = (w1.minor -. w0.minor) /. float_of_int (steps * n * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per cell per step <= 64" per_cell)
    true (per_cell <= 64.)

let () =
  Alcotest.run "bytecode"
    [ ( "disassembly",
        [ Alcotest.test_case "golden listings" `Quick test_golden_listings;
          Alcotest.test_case "optimised euler listings" `Quick
            test_golden_optimised;
          Alcotest.test_case "compile deterministic" `Quick
            test_compile_deterministic;
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
          Alcotest.test_case "lane-split error parity" `Quick
            test_error_parity_split;
          Alcotest.test_case "runner engines" `Quick
            test_runner_engines_agree;
          Alcotest.test_case "runner par-threshold" `Quick
            test_runner_par_threshold ] );
      ( "recycling",
        [ Alcotest.test_case "earlier results survive" `Quick
            test_recycle_earlier_results;
          Alcotest.test_case "escaping results kept" `Quick
            test_recycle_escapes;
          Alcotest.test_case "raising calls pool nothing" `Quick
            test_recycle_after_raise;
          Alcotest.test_case "sod bitwise" `Quick test_recycle_sod_bitwise ] );
      ( "allocation",
        [ Alcotest.test_case "sod step words" `Quick test_sod_step_words;
          Alcotest.test_case "quadrant step words" `Quick
            test_quadrant_step_words ] ) ]
