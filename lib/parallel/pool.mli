(** Persistent SPMD worker pool with spin-wait synchronisation.

    This models the SaC Pthread backend the paper credits for its
    scalability: worker threads are created {e once}, parked on a spin
    loop, and released by a shared-memory flag — no kernel call on the
    critical path of a parallel region, and one dispatch can carry
    several phases ({!run_phases}).  Contrast {!Fork_join}, which
    pays a full fork and join for every loop, as the OpenMP-style
    auto-parallelised Fortran does.

    The pool runs on real OCaml domains, so on a machine with [c]
    hardware cores at most [c] lanes run truly concurrently; lane
    counts beyond that still execute correctly (the OS timeshares). *)

type t

val create : lanes:int -> t
(** [create ~lanes] starts a pool with [lanes] execution lanes: the
    calling domain plus [lanes - 1] parked worker domains.
    @raise Invalid_argument if [lanes < 1]. *)

val lanes : t -> int

val run : t -> (int -> unit) -> unit
(** [run pool f] executes [f lane_id] on every lane (ids
    [0 .. lanes-1], the caller being lane 0) and spin-waits until all
    lanes finish — one SPMD region with two barrier crossings.
    Not reentrant: [f] must not call {!run} on the same pool.

    If any lane raises, the lane still reaches the barrier (so the
    pool stays consistent) and the {e first} exception recorded during
    the region is re-raised here, on the orchestrating domain, with
    its original backtrace.  The pool remains usable afterwards. *)

val run_phases :
  t ->
  phases:int ->
  ?on_phase:(int -> unit) ->
  (phase:int -> lane:int -> unit) ->
  unit
(** [run_phases pool ~phases body] executes [body ~phase:k ~lane] for
    [k = 0 .. phases-1] on every lane in {e one} dispatch: lanes stay
    resident and synchronise between phases on an in-region
    sense-reversing barrier (a handful of shared-memory operations)
    instead of returning to the orchestrator — the with-loop-folding
    transformation the paper credits to sac2c, performed at the
    runtime level.  Within a phase all lanes run concurrently; a lane
    only enters phase [k+1] once every lane has finished phase [k].

    [on_phase k] (if given) runs on the orchestrating lane right after
    the barrier of phase [k] — the hook instrumentation uses to sample
    per-phase timestamps.  Exceptions behave as in {!run}: a raising
    lane still attends every remaining barrier, and the first recorded
    exception is re-raised here after the final join.  Only the
    dispatch itself counts in {!barriers_crossed}; in-region barriers
    are the cost being saved and are deliberately not charged. *)

val parallel_for :
  ?schedule:Chunk.schedule -> t -> lo:int -> hi:int -> (int -> unit) -> unit
(** Data-parallel loop over [\[lo, hi)]; default [Static]
    distribution (the paper's fastest OMP_SCHEDULE setting), or
    [Dynamic n] self-scheduling from a shared counter. *)

val parallel_for_lanes :
  ?schedule:Chunk.schedule ->
  t -> lo:int -> hi:int -> (lane:int -> int -> unit) -> unit
(** Like {!parallel_for}, but the body also receives the id of the
    lane executing it — the key a kernel needs to index per-lane
    scratch (see {!Workspace}).  Under [Static] each lane runs one
    contiguous chunk; under [Dynamic n] lanes self-schedule, so the
    indices a lane sees are not contiguous, but every index is still
    executed exactly once by exactly one lane. *)

val barriers_crossed : t -> int
(** Number of release/join barrier pairs executed so far — the
    instrumentation the cost model consumes. *)

val shutdown : t -> unit
(** Terminates and joins the workers.  The pool must not be used
    afterwards.  Idempotent: calling [shutdown] twice, or after a
    region whose barrier re-raised a worker exception, is a no-op
    rather than a hang (the error is parked per-region and every lane
    always reaches the join, so the workers are parked and joinable
    whenever no region is in flight). *)

val stop : t -> unit
(** Alias of {!shutdown}. *)

val with_pool : lanes:int -> (t -> 'a) -> 'a
(** Scoped creation: shuts the pool down even if the body raises. *)
