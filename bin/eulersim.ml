(* eulersim: command-line driver mirroring the original Fortran code's
   options -- problem selection, reconstruction, Riemann solver,
   Runge-Kutta order, CFL -- plus the engine layer's backend registry
   (--backend) and scheduler selection (--sched). *)

open Cmdliner

(* Problem names come from the scenario registry — a scenario added
   there is immediately selectable here, and an unknown name is an
   error naming the vocabulary, never a silent fallback. *)
let problem_conv =
  let parse s =
    match Engine.Scenario.find s with
    | Some scen -> Ok scen
    | None ->
      Error
        (`Msg
           ("unknown problem; available: "
            ^ String.concat ", " (Engine.Scenario.names ())))
  in
  Arg.conv
    (parse, fun ppf s -> Format.pp_print_string ppf s.Engine.Scenario.name)

let recon_conv =
  let parse s =
    match Euler.Recon.of_string s with
    | Some r -> Ok r
    | None ->
      Error
        (`Msg
           ("unknown reconstruction; available: "
            ^ String.concat ", " Euler.Recon.all_names))
  in
  Arg.conv (parse, fun ppf r -> Format.pp_print_string ppf (Euler.Recon.name r))

let riemann_conv =
  let parse s =
    match Euler.Riemann.of_string s with
    | Some r -> Ok r
    | None -> Error (`Msg "unknown Riemann solver (rusanov, hll, hllc, roe)")
  in
  Arg.conv
    (parse, fun ppf r -> Format.pp_print_string ppf (Euler.Riemann.name r))

let rk_conv =
  let parse s =
    match Euler.Rk.of_string s with
    | Some r -> Ok r
    | None -> Error (`Msg "unknown time integrator (euler1, rk2, rk3)")
  in
  Arg.conv (parse, fun ppf r -> Format.pp_print_string ppf (Euler.Rk.name r))

let backend_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    if Option.is_some (Engine.Registry.find s) then Ok s
    else
      Error
        (`Msg
           ("unknown backend; available: "
            ^ String.concat ", " (Engine.Registry.names ())))
  in
  Arg.conv (parse, Format.pp_print_string)

let scheduler_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "seq" | "sequential" -> Ok `Seq
    | "spmd" -> Ok `Spmd
    | "forkjoin" | "fork-join" -> Ok `Fork_join
    | _ -> Error (`Msg "expected seq, spmd or forkjoin")
  in
  let print ppf = function
    | `Seq -> Format.pp_print_string ppf "seq"
    | `Spmd -> Format.pp_print_string ppf "spmd"
    | `Fork_join -> Format.pp_print_string ppf "forkjoin"
  in
  Arg.conv (parse, print)

(* "auto" resolves the lane count from the hardware, like OMP_NUM_THREADS
   left unset. *)
let lanes_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "auto" -> Ok (Domain.recommended_domain_count ())
    | s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "expected a positive lane count or 'auto'"))
  in
  Arg.conv (parse, Format.pp_print_int)

(* "RxC" (e.g. 2x2, 3x2) tile decompositions; 1x1 is monolithic. *)
let tiles_conv =
  let parse s =
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c when r >= 1 && c >= 1 -> Ok (r, c)
      | _ -> Error (`Msg "expected ROWSxCOLS with positive counts, e.g. 2x2"))
    | _ -> Error (`Msg "expected ROWSxCOLS, e.g. 2x2")
  in
  let print ppf (r, c) = Format.fprintf ppf "%dx%d" r c in
  Arg.conv (parse, print)

(* The whole-array and mini-SaC backends implement only the §5
   benchmark scheme; rather than erroring out, downgrade the scheme
   and say so. *)
let effective_config backend (config : Euler.Solver.config) =
  let b = Euler.Solver.benchmark_config in
  match backend with
  | "array" | "sacprog"
    when config.recon <> b.recon || config.riemann <> b.riemann
         || config.rk <> b.rk ->
    Printf.printf
      "note: backend %s supports only the benchmark scheme; using \
       piecewise-constant + rusanov + rk3\n"
      backend;
    { b with cfl = config.cfl; fused = config.fused; tiles = config.tiles }
  | _ -> config

let run problem nx ms recon riemann rk cfl unfused tiles steps t_end backend
    scheduler lanes par_threshold csv pgm ckpt_dir ckpt_every ckpt_every_s
    ckpt_retain resume =
  let exec =
    match scheduler with
    | `Seq -> Parallel.Exec.sequential ()
    | `Spmd -> Parallel.Exec.spmd ~lanes
    | `Fork_join -> Parallel.Exec.fork_join ~lanes
  in
  let fail msg =
    Printf.eprintf "eulersim: %s\n" msg;
    exit 2
  in
  (* --nx left unset means the scenario's registered default; a
     resolution the scenario rejects (e.g. dmr needs a multiple of 4)
     is a clean CLI error. *)
  let prob =
    try Engine.Scenario.problem ?nx ~ms problem
    with Invalid_argument msg -> fail msg
  in
  Printf.printf "problem: %s\n" prob.Euler.Setup.description;
  (* On resume the snapshot's descriptor is authoritative for the
     backend and scheme: the run must continue with the numerics it
     was saved under.  The CLI still supplies the problem (grid, BCs),
     the scheduler, and fused/unfused. *)
  let inst, backend, config =
    match resume with
    | None ->
      let config =
        effective_config backend
          { Euler.Solver.recon; riemann; rk; cfl; fused = not unfused; tiles }
      in
      let inst =
        try
          Engine.Registry.create ~exec ?par_threshold:par_threshold ~config
            backend prob
        with Invalid_argument msg -> fail msg
      in
      (inst, backend, config)
    | Some spec -> (
      let resolve () =
        match spec with
        | "latest" -> (
          match ckpt_dir with
          | None -> fail "--resume latest requires --checkpoint-dir"
          | Some dir -> (
            match
              Engine.Registry.resume_latest ~exec
                ?par_threshold:par_threshold ~fused:(not unfused) ~tiles ~dir
                prob
            with
            | None ->
              (* Show what WAS there and why each file was rejected,
                 so a torn autosave or a typo'd directory is
                 diagnosable from the message alone. *)
              fail
                (Printf.sprintf "no intact checkpoint found in %s\n%s" dir
                   (Persist.Checkpoint.report dir))
            | Some (path, inst) -> (path, inst)))
        | path ->
          ( path,
            Engine.Registry.resume_file ~exec ?par_threshold:par_threshold
              ~fused:(not unfused) ~tiles ~path prob )
      in
      try
        let path, inst = resolve () in
        Printf.printf "resumed: %s (step %d, t = %.6g)\n" path
          (Engine.Backend.steps inst)
          (Engine.Backend.time inst);
        let snap = Engine.Backend.snapshot inst in
        (inst, Engine.Snap.backend snap, Engine.Snap.config ~tiles snap)
      with
      | Persist.Snapshot.Corrupt msg -> fail ("corrupt checkpoint: " ^ msg)
      | Persist.Snapshot.Mismatch msg ->
        fail ("checkpoint does not match this run: " ^ msg)
      | Invalid_argument msg -> fail msg
      | Sys_error msg -> fail msg)
  in
  Printf.printf "scheme: %s + %s + %s, CFL %g; backend: %s; sched: %s\n"
    (Euler.Recon.name config.recon)
    (Euler.Riemann.name config.riemann)
    (Euler.Rk.name config.rk)
    config.cfl backend
    (Parallel.Exec.describe exec);
  (let r, c = config.tiles in
   if (r, c) <> (1, 1) then
     Printf.printf "tiles: %dx%d (halo depth %d)\n" r c
       prob.Euler.Setup.state.Euler.State.grid.Euler.Grid.ng);
  let autosave =
    match ckpt_dir with
    | Some dir when ckpt_every > 0 || ckpt_every_s > 0. ->
      Some
        (Engine.Run.autosave
           ?every_steps:(if ckpt_every > 0 then Some ckpt_every else None)
           ?every_seconds:
             (if ckpt_every_s > 0. then Some ckpt_every_s else None)
           ~retain:ckpt_retain dir)
    | _ -> None
  in
  (* --steps is the TOTAL step target, so an interrupted-and-resumed
     run and an uninterrupted one are invoked identically and finish
     at the same step. *)
  let metrics =
    match (steps, t_end) with
    | Some n, _ ->
      Engine.Run.run_steps ?autosave inst
        (max 0 (n - Engine.Backend.steps inst))
    | None, Some t -> Engine.Run.run_until ?autosave inst t
    | None, None ->
      Engine.Run.run_steps ?autosave inst
        (max 0 (100 - Engine.Backend.steps inst))
  in
  (match ckpt_dir with
   | Some dir ->
     let path = Engine.Run.save ~dir inst in
     Printf.printf "checkpoint: %s\n" path
   | None -> ());
  print_endline (Engine.Metrics.to_string metrics);
  Printf.printf "%.2f ms/step\n"
    (metrics.Engine.Metrics.wall_s
     /. float_of_int (max metrics.Engine.Metrics.steps 1)
     *. 1e3);
  let final_state = Engine.Backend.state inst in
  Printf.printf "mass %.6f  energy %.6f  min rho %.4f  min p %.4f\n"
    (Euler.State.total_mass final_state)
    (Euler.State.total_energy final_state)
    (Euler.State.min_density final_state)
    (Euler.State.min_pressure final_state);
  let is_1d = Euler.Grid.is_1d final_state.Euler.State.grid in
  if is_1d then
    print_string
      (Euler.Field_io.ascii_profile ~width:72 ~height:14
         (Euler.State.density_profile final_state))
  else
    print_string
      (Euler.Field_io.ascii_contour ~width:72 ~height:26
         (Euler.Field_io.schlieren (Euler.State.density_field final_state)));
  (match csv with
   | Some path ->
     if is_1d then Engine.Run.emit ~profile_csv:path inst
     else Engine.Run.emit ~field_csv:path inst;
     Printf.printf "wrote %s\n" path
   | None -> ());
  (match pgm with
   | Some path ->
     Engine.Run.emit ~pgm:path inst;
     Printf.printf "wrote %s\n" path
   | None -> ())

(* eulersim serve: the fleet front-end.  Jobs arrive as files in
   INBOX/inbox, results leave as files in INBOX/done; scheduling and
   preemption live in Fleet.Scheduler. *)
let serve inbox_dir scheduler lanes slice retain poll_s drain quiet =
  let exec =
    match scheduler with
    | `Seq -> Parallel.Exec.sequential ()
    | `Spmd -> Parallel.Exec.spmd ~lanes
    | `Fork_join -> Parallel.Exec.fork_join ~lanes
  in
  let fail msg =
    Printf.eprintf "eulersim serve: %s\n" msg;
    exit 2
  in
  let inbox = Fleet.Inbox.make inbox_dir in
  let sched =
    try
      Fleet.Scheduler.config ~exec ~slice_steps:slice ~retain
        ~ckpt_root:(Fleet.Inbox.ckpt_root inbox)
        ()
    with Invalid_argument msg -> fail msg
  in
  let log = if quiet then fun _ -> () else print_endline in
  Printf.printf "serving %s: %s, slice %d steps, %s\n%!"
    inbox_dir
    (Parallel.Exec.describe exec)
    slice
    (if drain then "drain mode (exit when empty)"
     else Printf.sprintf "polling every %g s" poll_s);
  let t =
    try Fleet.Serve.run inbox (Fleet.Serve.config ~poll_s ~drain ~log sched)
    with Invalid_argument msg -> fail msg
  in
  if quiet then print_endline (Fleet.Telemetry.to_string t);
  if t.Fleet.Telemetry.failed > 0 then exit 1

let serve_cmd =
  let inbox_dir =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"INBOX"
             ~doc:"inbox root directory (created if missing); job files go \
                   to $(docv)/inbox, results appear in $(docv)/done")
  and scheduler =
    Arg.(value & opt scheduler_conv `Seq
         & info [ "sched" ] ~doc:"scheduler: seq, spmd or forkjoin")
  and lanes =
    Arg.(value & opt lanes_conv 2
         & info [ "lanes" ] ~docv:"N"
             ~doc:"parallel lanes, or $(b,auto)")
  and slice =
    Arg.(value & opt int 50
         & info [ "slice" ] ~docv:"STEPS"
             ~doc:"steps per scheduling slice; every unfinished job \
                   checkpoints and requeues at each slice boundary, so \
                   this is both the preemption grain and the crash-loss \
                   bound")
  and retain =
    Arg.(value & opt int 2
         & info [ "retain" ] ~docv:"K"
             ~doc:"checkpoints kept per job")
  and poll_s =
    Arg.(value & opt float 0.2
         & info [ "poll-s" ] ~docv:"SECONDS"
             ~doc:"idle sleep between inbox polls")
  and drain =
    Arg.(value & flag
         & info [ "drain" ]
             ~doc:"exit once inbox, active set and queue are all empty \
                   (batch mode); without it the server polls forever")
  and quiet =
    Arg.(value & flag
         & info [ "quiet" ] ~doc:"suppress per-job lifecycle logging")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run a fleet server over a file-based inbox: claim job files by \
          atomic rename, schedule them fair-share across lanes with \
          checkpoint preemption, write result files")
    Term.(
      const serve $ inbox_dir $ scheduler $ lanes $ slice $ retain $ poll_s
      $ drain $ quiet)

let run_term =
  let problem =
    Arg.(value
         & pos 0 problem_conv (Engine.Scenario.find_exn "sod")
         & info [] ~docv:"PROBLEM"
             ~doc:
               ("one of: " ^ String.concat ", " (Engine.Scenario.names ())))
  and nx =
    Arg.(value & opt (some int) None
         & info [ "n"; "nx" ] ~docv:"N"
             ~doc:"grid cells per side (default: the scenario's \
                   registered resolution)")
  and ms =
    Arg.(value & opt float Engine.Scenario.default_ms
         & info [ "ms" ] ~doc:"shock Mach number (two-channel)")
  and recon =
    Arg.(value & opt recon_conv Euler.Recon.Weno3
         & info [ "recon" ] ~doc:"reconstruction scheme")
  and riemann =
    Arg.(value & opt riemann_conv Euler.Riemann.Hllc
         & info [ "riemann" ] ~doc:"Riemann solver")
  and rk =
    Arg.(value & opt rk_conv Euler.Rk.Tvd_rk3
         & info [ "rk" ] ~doc:"time integrator")
  and cfl = Arg.(value & opt float 0.5 & info [ "cfl" ] ~doc:"CFL number")
  and unfused =
    Arg.(value & flag
         & info [ "unfused" ]
             ~doc:"dispatch one parallel region per loop nest instead of \
                   fusing each RK stage into one multi-phase region \
                   (results are bitwise identical; only barrier overhead \
                   differs)")
  and tiles =
    Arg.(value & opt tiles_conv (1, 1)
         & info [ "tiles" ] ~docv:"RxC"
             ~doc:"tile decomposition, e.g. $(b,2x2) (reference backend \
                   only; results are bitwise identical to 1x1 — inter-tile \
                   ghost strips are stitched by a halo-exchange phase each \
                   RK stage)")
  and steps =
    Arg.(value & opt (some int) None
         & info [ "steps" ] ~doc:"march a fixed number of steps")
  and t_end =
    Arg.(value & opt (some float) None
         & info [ "t"; "time" ] ~doc:"march to a physical time")
  and backend =
    Arg.(value & opt backend_conv "reference"
         & info [ "backend" ]
             ~doc:"solver implementation: reference, array, fortran, \
                   fortran-outer or sacprog")
  and scheduler =
    Arg.(value & opt scheduler_conv `Seq
         & info [ "sched" ] ~doc:"scheduler: seq, spmd or forkjoin")
  and lanes =
    Arg.(value & opt lanes_conv 2
         & info [ "lanes" ] ~docv:"N"
             ~doc:"parallel lanes, or $(b,auto) for the machine's \
                   recommended domain count")
  and par_threshold =
    Arg.(value & opt (some int) None
         & info [ "par-threshold" ] ~docv:"N"
             ~doc:"minimum with-loop/fold partition (elements) the sacprog \
                   VM dispatches across lanes (default 1024); smaller grids \
                   run sequentially regardless of --sched.  Native backends \
                   ignore it")
  and csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~doc:"write the final field/profile as CSV")
  and pgm =
    Arg.(value & opt (some string) None
         & info [ "pgm" ] ~doc:"write the final density as a PGM image")
  and ckpt_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"write checkpoints into $(docv); a final checkpoint is \
                   always written when the march ends")
  and ckpt_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"checkpoint every $(docv) total steps (0 = only the \
                   final one)")
  and ckpt_every_s =
    Arg.(value & opt float 0.
         & info [ "checkpoint-every-s" ] ~docv:"SECONDS"
             ~doc:"checkpoint every $(docv) wall-clock seconds")
  and ckpt_retain =
    Arg.(value & opt int 3
         & info [ "checkpoint-retain" ] ~docv:"K"
             ~doc:"keep the newest $(docv) periodic checkpoints")
  and resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"PATH|latest"
             ~doc:"resume from a checkpoint file, or from the newest \
                   intact checkpoint in --checkpoint-dir with \
                   $(b,latest); the snapshot's backend and scheme \
                   override the CLI flags, and --steps counts total \
                   steps including the resumed ones")
  in
  Term.(
    const run $ problem $ nx $ ms $ recon $ riemann $ rk $ cfl $ unfused
    $ tiles $ steps $ t_end $ backend $ scheduler $ lanes $ par_threshold
    $ csv $ pgm $ ckpt_dir $ ckpt_every $ ckpt_every_s $ ckpt_retain
    $ resume)

(* A cmdliner group would route the first positional through
   sub-command lookup and reject scenario names, breaking the classic
   single-run CLI (`eulersim sod --steps 100`).  Dispatch by hand
   instead: a literal leading `serve` goes to the fleet server,
   anything else to the single-run command. *)
let () =
  let info =
    Cmd.info "eulersim"
      ~doc:
        "unsteady shock-wave simulator (PaCT 2009 reproduction); \
         $(b,eulersim serve INBOX) runs the fleet job server"
  in
  let cmd =
    if Array.length Sys.argv > 1 && Sys.argv.(1) = "serve" then
      Cmd.group info [ serve_cmd ]
    else Cmd.v info run_term
  in
  exit (Cmd.eval cmd)
