(** The fair-share job queue.

    Jobs are grouped by submitter; {!take} picks the submitter with
    the least {e accumulated service} (cell-updates charged via
    {!charge} as their jobs run, ties broken by name), then that
    submitter's highest-priority, earliest-submitted job.  A
    submitter who has burned many cycles therefore yields to one who
    just arrived, regardless of how many jobs either has enqueued —
    weighted fair queueing in its simplest deterministic form.

    Preemption requeues a job under its {e original} submission rank
    (the queue remembers ranks by job id), so a preempted job resumes
    ahead of jobs submitted after it rather than going to the back of
    the line.  All state is in-process and deterministic: no clocks,
    no randomness — the same submit/charge/take sequence always
    yields the same order. *)

type t

val create : unit -> t

val submit : t -> Job.t -> unit
(** Enqueue.  A job id seen before (a preempted job coming back)
    keeps its original submission rank.
    @raise Invalid_argument if a job with this id is already
    pending. *)

val take : t -> Job.t option
(** Remove and return the next job under fair-share order; [None]
    when the queue is empty. *)

val charge : t -> submitter:string -> float -> unit
(** Add [units] of service (the scheduler charges
    [steps * interior cells]) to a submitter's account.  Unknown
    submitters get an account on first charge. *)

val service : t -> string -> float
(** A submitter's accumulated service; [0.] if never charged. *)

val pending : t -> int
(** Jobs currently enqueued. *)

val is_empty : t -> bool

val jobs : t -> Job.t list
(** All pending jobs in the order {!take} would drain them (no
    charges applied in between) — for introspection and tests. *)
