(* sacc: the mini-sac2c driver.  Parses, type-checks and optimises a
   mini-SaC program (a file or one of the embedded programs), prints
   the optimised code and optionally evaluates a function.

   The flags mirror the sac2c invocation from the paper's
   configuration table: -maxoptcyc, -maxwlur, and switches for the
   individual optimisations. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_value s =
  (* Accepts ints, floats and [v1,...,vn] double vectors. *)
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '[' then begin
    let inner = String.sub s 1 (String.length s - 2) in
    let parts =
      List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' inner)
    in
    Sac.Value.Vdarr
      (Tensor.Nd.of_list1
         (List.map (fun p -> float_of_string (String.trim p)) parts))
  end
  else
    match int_of_string_opt s with
    | Some n -> Sac.Value.Vint n
    | None -> Sac.Value.Vdbl (float_of_string s)

let run source_arg maxoptcyc maxwlur nowlf noinline noopt print_code
    dump_bytecode use_vm run_fun args lanes par_threshold use_stdlib =
  let source =
    match List.assoc_opt source_arg Sacprog.Programs.all with
    | Some src -> src
    | None -> read_file source_arg
  in
  let source =
    if use_stdlib then Sac.Stdlib_sac.with_prelude source else source
  in
  let options =
    if noopt then Sac.Pipeline.o0
    else
      { Sac.Pipeline.default_options with
        Sac.Pipeline.maxoptcyc;
        maxwlur;
        do_fuse = not nowlf;
        do_inline = not noinline }
  in
  let prog, bytecode, report = Sac.Pipeline.compile_bytecode ~options source in
  Printf.printf
    "compiled: %d optimisation cycle(s), static array ops %d -> %d\n"
    report.Sac.Pipeline.cycles_used report.Sac.Pipeline.array_ops_before
    report.Sac.Pipeline.array_ops_after;
  (match report.Sac.Pipeline.bytecode with
   | Some s ->
     Printf.printf
       "bytecode: %d function(s), %d with-loop(s), %d instruction(s), \
        %d constant(s)\n"
       s.Sac.Bytecode.n_funcs s.Sac.Bytecode.n_withs s.Sac.Bytecode.n_instrs
       s.Sac.Bytecode.n_consts
   | None -> ());
  if print_code then print_string (Sac.Pretty.program_to_string prog);
  if dump_bytecode then print_string (Sac.Bytecode.to_string bytecode);
  (match run_fun with
   | None -> ()
   | Some name ->
     let exec =
       if lanes > 1 then Some (Parallel.Exec.spmd ~lanes) else None
     in
     let vs = List.map parse_value args in
     let result, stats =
       if use_vm then begin
         let ctx =
           Sac.Vm.make_ctx ?exec ~parallel_threshold:par_threshold bytecode
         in
         let r = Sac.Vm.run_fun ctx name vs in
         (r, Sac.Vm.stats ctx)
       end
       else begin
         let ctx =
           Sac.Eval.make_ctx ?exec ~parallel_threshold:par_threshold prog
         in
         let r = Sac.Eval.run_fun ctx name vs in
         (r, Sac.Eval.stats ctx)
       end
     in
     Printf.printf "%s(%s) = %s\n" name (String.concat ", " args)
       (Sac.Value.to_string result);
     Printf.printf
       "executed %d with-loop(s) over %d element(s), %d user call(s)\n"
       stats.Sac.Eval.with_loops stats.Sac.Eval.elements
       stats.Sac.Eval.calls);
  0

let cmd =
  let source =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SOURCE"
             ~doc:"a .sac file, or an embedded program: dfdx, getdt, \
                   euler1d, euler2d, poisson1d")
  and maxoptcyc =
    Arg.(value & opt int 100
         & info [ "maxoptcyc" ] ~doc:"optimisation cycle limit")
  and maxwlur =
    Arg.(value & opt int 20
         & info [ "maxwlur" ] ~doc:"with-loop unrolling limit")
  and nowlf =
    Arg.(value & flag & info [ "nowlf" ] ~doc:"disable with-loop folding")
  and noinline =
    Arg.(value & flag & info [ "noinline" ] ~doc:"disable inlining")
  and noopt =
    Arg.(value & flag & info [ "O0" ] ~doc:"disable every optimisation")
  and print_code =
    Arg.(value & flag & info [ "print" ] ~doc:"print the optimised program")
  and dump_bytecode =
    Arg.(value & flag
         & info [ "dump-bytecode" ]
             ~doc:"print a disassembly of the generated bytecode")
  and use_vm =
    Arg.(value & flag
         & info [ "vm" ]
             ~doc:"evaluate -run on the bytecode VM instead of the \
                   tree-walking interpreter")
  and run_fun =
    Arg.(value & opt (some string) None
         & info [ "run" ] ~docv:"FUNC" ~doc:"evaluate a function")
  and args =
    Arg.(value & opt_all string []
         & info [ "arg" ]
             ~doc:"argument for -run (int, float or [v1,v2,...]); repeatable")
  and lanes =
    Arg.(value & opt int 1
         & info [ "lanes" ]
             ~doc:"run with-loops SPMD on this many lanes")
  and par_threshold =
    Arg.(value & opt int 1024
         & info [ "par-threshold" ] ~docv:"N"
             ~doc:"minimum with-loop/fold partition (elements) dispatched \
                   across lanes (default 1024); below it execution stays \
                   sequential even with -lanes > 1")
  and use_stdlib =
    Arg.(value & flag
         & info [ "stdlib" ]
             ~doc:"prepend the mini-SaC standard library (iota, \
                   transpose, matmul, ...)")
  in
  Cmd.v
    (Cmd.info "sacc" ~doc:"miniature SaC compiler and evaluator")
    Term.(
      const run $ source $ maxoptcyc $ maxwlur $ nowlf $ noinline $ noopt
      $ print_code $ dump_bytecode $ use_vm $ run_fun $ args $ lanes
      $ par_threshold $ use_stdlib)

let () = exit (Cmd.eval' cmd)
