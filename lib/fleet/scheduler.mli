(** The fleet scheduler: fair-share rounds and checkpoint-based
    preemption over one shared {!Parallel.Exec}.

    One {!drain} round takes the fair-share head from the queue,
    materialises it on the config's exec (tiled per its descriptor)
    and runs one slice of it, so every job — 1D tube or 2D field —
    uses every lane for its own solve, the parallelism the paper
    measures.  Jobs take turns slice by slice; they never run side
    by side.

    Preemption is unconditional: at the end of every slice each
    unfinished job writes a checkpoint (retained per the config) and
    goes back to the queue; the next time it surfaces it is rebuilt
    with {!Engine.Registry.resume_latest}.  Because resume is
    bitwise-pinned and the slice boundary is a step boundary, a
    preempted job's final state is byte-for-byte the uninterrupted
    run's — the property the fleet tests pin across all three
    schedulers.  It also means crash recovery and preemption are the
    same code path: a [kill -9] just looks like a slightly stale
    preemption.

    Exceptions inside a job (unknown scenario, solver blow-up,
    descriptor/checkpoint mismatch) are caught per job and reported
    as [Failed] outcomes; they never reach the other jobs or the
    server. *)

type config = private {
  exec : Parallel.Exec.t;  (** the shared lane budget *)
  slice_steps : int;  (** steps per scheduling slice (>= 1) *)
  ckpt_root : string;  (** per-job checkpoint dirs live under here *)
  retain : int;  (** checkpoints kept per job *)
}

val config :
  ?exec:Parallel.Exec.t ->
  ?slice_steps:int ->
  ?retain:int ->
  ckpt_root:string ->
  unit ->
  config
(** Defaults: sequential exec, slice 50, retain 2.
    @raise Invalid_argument on non-positive parameters. *)

val ckpt_dir : config -> Job.t -> string
(** [ckpt_root/<job id>] — where this job checkpoints and resumes. *)

type status = Done | Failed of string

type outcome = {
  job : Job.t;
  status : status;
  steps : int;  (** the backend's total step count at the end *)
  steps_run : int;  (** steps executed by {e this} drain (resumes excluded) *)
  sim_time : float;
  cells : int;  (** interior cells ([0] if materialisation failed) *)
  wall_s : float;  (** compute wall, summed over the job's slices *)
  preemptions : int;  (** checkpoint-and-requeue events *)
  resumes : int;  (** rebuilds from a checkpoint (includes adopt) *)
  final_ckpt : string option;  (** last snapshot written, if any *)
  last : Engine.Metrics.t option;  (** metrics of the final slice *)
}

val ms_per_step : outcome -> float
(** [wall_s / steps_run] in milliseconds; [0.] when nothing ran. *)

val outcome_kv : outcome -> (string * string) list
(** The result-file rendering: status, steps, steps_run, sim_time,
    cells, wall_s, ms_per_step, preemptions, resumes, and error /
    final_ckpt when present. *)

type event =
  | Dispatched of Job.t * [ `Fresh | `Resumed of string ]
      (** materialised for a slice, fresh or from a checkpoint path *)
  | Preempted of Job.t * int  (** requeued at the given total step *)
  | Completed of outcome

val drain :
  ?on_event:(event -> unit) ->
  ?before_round:(unit -> unit) ->
  config ->
  Queue.t ->
  outcome list
(** Run rounds until the queue is empty; returns outcomes in
    completion order.  [on_event] observes the lifecycle (the serve
    loop finalises results from [Completed]); [before_round] runs at
    the top of every round (the serve loop claims newly-arrived inbox
    jobs there, so submissions land mid-drain).  Both are called on
    the orchestrating domain only. *)
