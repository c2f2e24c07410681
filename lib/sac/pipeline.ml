type options = {
  maxoptcyc : int;
  maxwlur : int;
  do_fuse : bool;
  do_inline : bool;
  do_cse : bool;
  do_dce : bool;
  do_copy : bool;
  do_specialize : bool;
  inline_auto_threshold : int;
  do_superinstructions : bool;
}

let default_options =
  { maxoptcyc = 100;
    maxwlur = 20;
    do_fuse = true;
    do_inline = true;
    do_cse = true;
    do_dce = true;
    do_copy = true;
    do_specialize = true;
    inline_auto_threshold = 0;
    do_superinstructions = true }

let o0 =
  { maxoptcyc = 0;
    maxwlur = 0;
    do_fuse = false;
    do_inline = false;
    do_cse = false;
    do_dce = false;
    do_copy = false;
    do_specialize = false;
    inline_auto_threshold = 0;
    do_superinstructions = true }

type report = {
  cycles_used : int;
  array_ops_before : int;
  array_ops_after : int;
  bytecode : Bytecode.summary option;
  pass_ms : (string * float) list;
}

let pass_names =
  [| "inline"; "copy"; "specialise"; "fold"; "fuse"; "unroll"; "cse";
     "dce"; "typecheck" |]

(* Runs [f x] when [on], adding its wall time to slot [k] of [ns]. *)
let pass ns k on f x =
  if not on then x
  else begin
    let t0 = Parallel.Clock.now_ns () in
    let r = f x in
    ns.(k) <- ns.(k) +. (Parallel.Clock.now_ns () -. t0);
    r
  end

let cycle ns options prog =
  prog
  |> pass ns 0 options.do_inline
       (Opt_inline.run ~auto_threshold:options.inline_auto_threshold)
  |> pass ns 1 options.do_copy Opt_copy.run
  |> pass ns 2 options.do_specialize Opt_specialize.run
  |> pass ns 3 true Opt_fold.run
  |> pass ns 4 options.do_fuse Opt_fuse.run
  |> pass ns 5 (options.maxwlur > 0) (Opt_unroll.run ~max_size:options.maxwlur)
  |> pass ns 3 true Opt_fold.run
  |> pass ns 6 options.do_cse Opt_cse.run
  |> pass ns 7 options.do_dce Opt_dce.run

let optimize ?(options = default_options) prog =
  Ast.restart_fresh_names prog;
  let ns = Array.make (Array.length pass_names) 0. in
  let check = pass ns 8 true (fun p -> Typecheck.check_program p; p) in
  let prog = check prog in
  let before = Opt_fuse.array_op_nodes prog in
  let rec go prog n =
    if n >= options.maxoptcyc then (prog, n)
    else begin
      let prog' = check (cycle ns options prog) in
      if prog' = prog then (prog', n + 1) else go prog' (n + 1)
    end
  in
  let prog', cycles_used = go prog 0 in
  ( prog',
    { cycles_used;
      array_ops_before = before;
      array_ops_after = Opt_fuse.array_op_nodes prog';
      bytecode = None;
      pass_ms =
        Array.to_list (Array.mapi (fun k t -> (pass_names.(k), t /. 1e6)) ns) } )

let compile ?options src = optimize ?options (Parser.parse_program src)

let compile_bytecode ?(options = default_options) src =
  let prog, report = compile ~options src in
  let t0 = Parallel.Clock.now_ns () in
  let bc =
    Compile.program ~superinstructions:options.do_superinstructions prog
  in
  let lower_ms = (Parallel.Clock.now_ns () -. t0) /. 1e6 in
  ( prog,
    bc,
    { report with
      bytecode = Some (Bytecode.summary bc);
      pass_ms = report.pass_ms @ [ ("lower", lower_ms) ] } )
