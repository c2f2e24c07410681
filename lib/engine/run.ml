(* Monotonic wall clock plus domain-local GC counters around the
   stepping loop; both feed the derived per-step telemetry in
   Metrics.  Counters are sampled on this (the orchestrating) domain,
   which is exact for sequential execs and lane 0's share otherwise. *)
let now () = Parallel.Clock.now_s ()

type autosave = {
  dir : string;
  every_steps : int option;
  every_seconds : float option;
  retain : int;
}

let autosave ?every_steps ?every_seconds ?(retain = 3) dir =
  (match every_steps with
   | Some n when n < 1 ->
     invalid_arg "Run.autosave: every_steps must be >= 1"
   | _ -> ());
  (match every_seconds with
   | Some s when s <= 0. ->
     invalid_arg "Run.autosave: every_seconds must be positive"
   | _ -> ());
  if every_steps = None && every_seconds = None then
    invalid_arg "Run.autosave: at least one trigger required";
  if retain < 1 then invalid_arg "Run.autosave: retain must be >= 1";
  { dir; every_steps; every_seconds; retain }

let save ~dir inst =
  let path, _ = Persist.Checkpoint.save ~dir (Backend.snapshot inst) in
  path

(* Mutable accounting threaded through one driver call. *)
type ckpt_stats = {
  mutable count : int;
  mutable wall : float;
  mutable bytes : int;
  mutable payload : int;
  mutable last_save_t : float;
}

let write_checkpoint (a : autosave) (st : ckpt_stats) inst =
  let t0 = now () in
  let snap = Backend.snapshot inst in
  let _, size = Persist.Checkpoint.save ~dir:a.dir snap in
  Persist.Checkpoint.retain ~dir:a.dir ~keep:a.retain;
  st.count <- st.count + 1;
  st.wall <- st.wall +. (now () -. t0);
  st.bytes <- st.bytes + size;
  st.payload <- st.payload + Persist.Snapshot.payload_bytes snap;
  st.last_save_t <- now ()

(* The step trigger fires on the backend's TOTAL step count, not the
   steps of this driver call, so the checkpoint cadence of a resumed
   run lines up with the uninterrupted one (step 10's checkpoint is
   written at step 10 whether or not the process restarted at 7). *)
let maybe_checkpoint autosave stats inst =
  match autosave with
  | None -> ()
  | Some a ->
    let due_steps =
      match a.every_steps with
      | Some n -> Backend.steps inst mod n = 0
      | None -> false
    in
    let due_time =
      match a.every_seconds with
      | Some s -> now () -. stats.last_save_t >= s
      | None -> false
    in
    if due_steps || due_time then write_checkpoint a stats inst

let fresh_stats () =
  { count = 0; wall = 0.; bytes = 0; payload = 0; last_save_t = now () }

let finish inst stats ~t0 ~(w0 : Parallel.Exec.gc_words) =
  let wall_s = now () -. t0 in
  let w1 = Parallel.Exec.gc_words () in
  Backend.metrics ~wall_s ~minor_words:(w1.minor -. w0.minor)
    ~promoted_words:(w1.promoted -. w0.promoted)
    ~checkpoints:stats.count ~checkpoint_s:stats.wall
    ~checkpoint_bytes:stats.bytes ~checkpoint_payload_bytes:stats.payload
    inst

(* The yield hook is consulted after each completed step (and its
   on_step / autosave bookkeeping); returning true stops the march at
   that step boundary.  The fleet scheduler uses it to bound a
   preemption slice without disturbing the step sequence — a yielded
   march continued later is the same step-by-step trajectory. *)
let should_yield yield =
  match yield with None -> false | Some f -> f ()

let run_steps ?on_step ?autosave ?yield inst n =
  let stats = fresh_stats () in
  let w0 = Parallel.Exec.gc_words () in
  let t0 = now () in
  let taken = ref 0 in
  let stop = ref false in
  while (not !stop) && !taken < n do
    incr taken;
    let d = Backend.step inst in
    (match on_step with None -> () | Some f -> f inst d);
    maybe_checkpoint autosave stats inst;
    if should_yield yield then stop := true
  done;
  finish inst stats ~t0 ~w0

let run_until ?on_step ?autosave ?yield inst target =
  let stats = fresh_stats () in
  let w0 = Parallel.Exec.gc_words () in
  let t0 = now () in
  let stop = ref false in
  while (not !stop) && Backend.time inst < target -. 1e-14 do
    let d = Backend.dt inst in
    let d = Float.min d (target -. Backend.time inst) in
    Backend.step_dt inst d;
    (match on_step with None -> () | Some f -> f inst d);
    maybe_checkpoint autosave stats inst;
    if should_yield yield then stop := true
  done;
  finish inst stats ~t0 ~w0

let emit ?profile_csv ?field_csv ?pgm inst =
  let st = Backend.state inst in
  (match profile_csv with
   | None -> ()
   | Some path ->
     let g = st.Euler.State.grid in
     let xs =
       Array.init g.Euler.Grid.nx (fun ix -> Euler.Grid.xc g ix)
     in
     Euler.Field_io.write_profile_csv ~path
       ~columns:
         [ ("x", xs);
           ("rho", Euler.State.density_profile st);
           ("u", Euler.State.velocity_profile st);
           ("p", Euler.State.pressure_profile st) ]);
  (match field_csv with
   | None -> ()
   | Some path ->
     Euler.Field_io.write_field_csv ~path (Euler.State.density_field st));
  match pgm with
  | None -> ()
  | Some path ->
    Euler.Field_io.write_pgm ~path
      (Euler.Field_io.schlieren (Euler.State.density_field st))
