type config = {
  exec : Parallel.Exec.t;
  slice_steps : int;
  ckpt_root : string;
  retain : int;
}

let config ?(exec = Parallel.Exec.sequential ()) ?(slice_steps = 50)
    ?(retain = 2) ~ckpt_root () =
  if slice_steps < 1 then
    invalid_arg "Fleet.Scheduler.config: slice_steps must be >= 1";
  if retain < 1 then invalid_arg "Fleet.Scheduler.config: retain must be >= 1";
  { exec; slice_steps; ckpt_root; retain }

let ckpt_dir cfg (job : Job.t) = Filename.concat cfg.ckpt_root job.Job.id

type status = Done | Failed of string

type outcome = {
  job : Job.t;
  status : status;
  steps : int;
  steps_run : int;
  sim_time : float;
  cells : int;
  wall_s : float;
  preemptions : int;
  resumes : int;
  final_ckpt : string option;
  last : Engine.Metrics.t option;
}

let ms_per_step o =
  if o.steps_run = 0 then 0. else o.wall_s *. 1e3 /. float_of_int o.steps_run

let one_line s =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let outcome_kv o =
  [ ("status", match o.status with Done -> "done" | Failed _ -> "failed");
    ("steps", string_of_int o.steps);
    ("steps_run", string_of_int o.steps_run);
    ("sim_time", Printf.sprintf "%.17g" o.sim_time);
    ("cells", string_of_int o.cells);
    ("wall_s", Printf.sprintf "%.6f" o.wall_s);
    ("ms_per_step", Printf.sprintf "%.6g" (ms_per_step o));
    ("preemptions", string_of_int o.preemptions);
    ("resumes", string_of_int o.resumes) ]
  @ (match o.status with
     | Failed msg -> [ ("error", one_line msg) ]
     | Done -> [])
  @ (match o.final_ckpt with
     | Some p -> [ ("final_ckpt", p) ]
     | None -> [])

type event =
  | Dispatched of Job.t * [ `Fresh | `Resumed of string ]
  | Preempted of Job.t * int
  | Completed of outcome

(* Per-job accounting that survives preemption rounds (keyed by job
   id for the lifetime of one drain). *)
type stats = {
  mutable wall : float;
  mutable steps_run : int;
  mutable preemptions : int;
  mutable resumes : int;
}

let interior_cells inst =
  let g = (Engine.Backend.state inst).Euler.State.grid in
  g.Euler.Grid.nx * g.Euler.Grid.ny

let describe_exn = function
  | Job.Invalid msg -> msg
  | Invalid_argument msg -> msg
  | Failure msg -> msg
  | Persist.Snapshot.Mismatch msg -> "snapshot mismatch: " ^ msg
  | Persist.Snapshot.Corrupt msg -> "snapshot corrupt: " ^ msg
  | Sys_error msg -> msg
  | e -> Printexc.to_string e

(* Rebuild the job's instance: the newest intact checkpoint under its
   directory if one exists (the preemption / crash-recovery path),
   else fresh from the descriptor. *)
let materialize cfg (job : Job.t) =
  let prob = Job.problem job in
  let dir = ckpt_dir cfg job in
  match
    Engine.Registry.resume_latest ~exec:cfg.exec ~tiles:job.Job.tiles ~dir
      prob
  with
  | Some (path, inst) -> (inst, `Resumed path)
  | None ->
    ( Engine.Registry.create ~exec:cfg.exec ~config:(Job.config job)
        job.Job.backend prob,
      `Fresh )

let finished (job : Job.t) inst =
  match job.Job.target with
  | Job.Steps n -> Engine.Backend.steps inst >= n
  | Job.Until t -> Engine.Backend.time inst >= t -. 1e-14

(* One preemption slice.  Fixed-step jobs march min(slice, remaining)
   CFL steps; timed jobs march toward t_end but yield at the slice's
   step budget.  Either way the march stops at a step boundary, so
   the resumed trajectory is the uninterrupted one. *)
let run_slice cfg (job : Job.t) inst =
  match job.Job.target with
  | Job.Steps n ->
    let remaining = n - Engine.Backend.steps inst in
    Engine.Run.run_steps inst (max 0 (min cfg.slice_steps remaining))
  | Job.Until t ->
    let taken = ref 0 in
    Engine.Run.run_until inst t
      ~yield:(fun () ->
        incr taken;
        !taken >= cfg.slice_steps)

let drain ?(on_event = fun (_ : event) -> ()) ?(before_round = fun () -> ())
    cfg q =
  let stats_tbl : (string, stats) Hashtbl.t = Hashtbl.create 32 in
  let stats (job : Job.t) =
    match Hashtbl.find_opt stats_tbl job.Job.id with
    | Some s -> s
    | None ->
      let s = { wall = 0.; steps_run = 0; preemptions = 0; resumes = 0 } in
      Hashtbl.add stats_tbl job.Job.id s;
      s
  in
  let outcomes = ref [] in
  let complete o =
    outcomes := o :: !outcomes;
    on_event (Completed o)
  in
  let fail ?inst (job : Job.t) msg =
    let st = stats job in
    complete
      { job;
        status = Failed msg;
        steps = (match inst with Some i -> Engine.Backend.steps i | None -> 0);
        steps_run = st.steps_run;
        sim_time =
          (match inst with Some i -> Engine.Backend.time i | None -> 0.);
        cells = (match inst with Some i -> interior_cells i | None -> 0);
        wall_s = st.wall;
        preemptions = st.preemptions;
        resumes = st.resumes;
        final_ckpt = None;
        last = None }
  in
  (* Post-slice bookkeeping, on the orchestrating domain: account the
     slice, then either finish (final checkpoint + outcome) or
     preempt (checkpoint + requeue). *)
  let settle (job : Job.t) inst ~steps_before (m : Engine.Metrics.t) =
    let st = stats job in
    let slice_steps = Engine.Backend.steps inst - steps_before in
    st.wall <- st.wall +. m.Engine.Metrics.wall_s;
    st.steps_run <- st.steps_run + slice_steps;
    Queue.charge q ~submitter:job.Job.submitter
      (float_of_int slice_steps *. float_of_int (interior_cells inst));
    let dir = ckpt_dir cfg job in
    match
      let path, _ = Persist.Checkpoint.save ~dir (Engine.Backend.snapshot inst) in
      Persist.Checkpoint.retain ~dir ~keep:cfg.retain;
      path
    with
    | exception e -> fail ~inst job ("checkpoint write: " ^ describe_exn e)
    | path ->
      if finished job inst then
        complete
          { job;
            status = Done;
            steps = Engine.Backend.steps inst;
            steps_run = st.steps_run;
            sim_time = Engine.Backend.time inst;
            cells = interior_cells inst;
            wall_s = st.wall;
            preemptions = st.preemptions;
            resumes = st.resumes;
            final_ckpt = Some path;
            last = Some m }
      else begin
        st.preemptions <- st.preemptions + 1;
        on_event (Preempted (job, Engine.Backend.steps inst));
        Queue.submit q job
      end
  in
  (* One slice of one job on the shared exec: materialise (fresh or
     from its newest checkpoint), march, settle.  A failure at any
     point becomes this job's [Failed] outcome and nothing else's. *)
  let run job =
    match materialize cfg job with
    | exception e -> fail job (describe_exn e)
    | inst, how -> (
      (match how with
       | `Resumed _ -> (stats job).resumes <- (stats job).resumes + 1
       | `Fresh -> ());
      on_event (Dispatched (job, how));
      let steps_before = Engine.Backend.steps inst in
      match run_slice cfg job inst with
      | m -> settle job inst ~steps_before m
      | exception e -> fail ~inst job (describe_exn e))
  in
  let rec loop () =
    before_round ();
    match Queue.take q with
    | None -> ()
    | Some job ->
      run job;
      loop ()
  in
  loop ();
  List.rev !outcomes
