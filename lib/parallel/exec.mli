(** Scheduler abstraction used by the solvers.

    The Euler kernels are written against this interface so the same
    numerics can run sequentially, SPMD (SaC's execution model) or
    with per-loop fork/join (the OpenMP model).  Both parallel
    schedulers run on the same process-wide {!Team}; they differ only
    in how many regions a step opens, which is the variable the paper
    measures.  This module is the only place loops are chunked.  Every
    scheduler counts the parallel regions it executes {e and} buckets
    their wall time by region kind; the cost model turns the counts
    plus measured sequential times into predicted multi-core wall
    clocks, and the engine layer surfaces the buckets as
    per-backend instrumentation. *)

type t

(** Labels classifying what a region computes, so instrumentation can
    attribute time to the solver stages the paper discusses: flux/RHS
    evaluation, boundary fill, inter-tile halo exchange, reductions
    (GetDT) and Runge-Kutta stage combinations. *)
type region = Rhs | Bc | Halo | Reduce | Rk_combine | Other

val region_name : region -> string
(** ["rhs"], ["bc"], ["halo"], ["reduce"], ["rk-combine"],
    ["other"]. *)

val all_regions : region list

type bucket = {
  count : int;
  total_ns : float;
  max_ns : float;
  minor_words : float;
  promoted_words : float;
}
(** Accumulated instrumentation of one region kind: number of regions
    executed, total and maximum monotonic wall time in nanoseconds
    (sampled via {!Clock}), and the minor-heap words allocated and
    promoted while the region ran.  GC counters are sampled on the
    orchestrating domain and are domain-local in OCaml 5: exact under
    {!sequential} (the instrumentation pass), lane 0's share only
    under {!spmd}/{!fork_join}. *)

val sequential : unit -> t
(** Runs loops inline.  Regions are still counted and timed, so a
    sequential run doubles as the instrumentation pass. *)

val spmd : lanes:int -> t
(** SPMD scheduler: every loop is one region of the {!Team}, and
    {!parallel_phases} folds a whole phase sequence into one region.
    Creating one spawns nothing.
    @raise Invalid_argument if [lanes < 1]. *)

val fork_join : lanes:int -> t
(** Per-loop fork/join scheduler on the same {!Team}: every loop, and
    every phase of {!parallel_phases}, is its own region.  Creating
    one spawns nothing.
    @raise Invalid_argument if [lanes < 1]. *)

val lanes : t -> int
(** Number of execution lanes (1 for {!sequential}). *)

val workspace : t -> Workspace.t
(** The per-lane scratch arena owned by this scheduler, sized to
    {!lanes} lanes.  Kernels running under [parallel_for_lanes] index
    it with the lane id they receive; buffers are allocated once and
    reused across rows, stages and steps. *)

val parallel_for :
  ?schedule:Chunk.schedule ->
  ?region:region ->
  t -> lo:int -> hi:int -> (int -> unit) -> unit
(** One data-parallel region over [\[lo, hi)]; [schedule] (default
    static) selects the work distribution under both parallel
    schedulers, as OMP_SCHEDULE does for OpenMP auto-parallel loops.
    [region] (default [Other]) labels the timing bucket the region is
    charged to. *)

val parallel_for_lanes :
  ?schedule:Chunk.schedule ->
  ?region:region ->
  t -> lo:int -> hi:int -> (lane:int -> int -> unit) -> unit
(** Like {!parallel_for}, but the body receives the id of the lane
    executing it, always in [\[0, lanes t)] — the key into
    {!workspace} scratch.  Every index in [\[lo, hi)] is executed
    exactly once under both static and dynamic schedules; under
    {!sequential} the lane is always [0]. *)

type phase = {
  region : region;  (** timing bucket the phase is charged to *)
  lo : int;
  hi : int;
  body : lane:int -> int -> unit;
}
(** One stage of a fused multi-phase region: a data-parallel loop over
    [\[lo, hi)] whose body receives the executing lane id. *)

val parallel_phases : t -> phase array -> unit
(** [parallel_phases t phases] runs the phases in order, each one a
    statically-chunked data-parallel loop, with a {e barrier} between
    consecutive phases — phase [k+1] never starts before every lane
    has finished phase [k].  This is the with-loop-folding
    transformation at the scheduler level:

    - under {!spmd} the whole sequence is {e one} region of the team
      ({!regions} grows by 1); lanes synchronise on an in-region
      sense-reversing barrier (see {!Team.run_phases}) instead of
      returning to the orchestrator between phases;
    - under {!sequential} the phases run inline as one counted region
      (the instrumentation pass);
    - under {!fork_join} each non-empty phase pays its own fork/join
      region, exactly as per-loop OpenMP auto-parallelisation would —
      the model deliberately cannot fold.

    Per-phase wall time and GC words are still attributed to each
    phase's [region] bucket (under SPMD by sampling the clock on the
    orchestrating lane at every barrier crossing, so a dispatch's
    phase buckets sum to its wall time).  An empty [phases] array is a
    no-op.  Chunking is always static; results are independent of the
    scheduler because lanes only partition index ranges. *)

val lane_pad : int
(** Spacing, in floats, between per-lane reduction slots (one cache
    line), as used by {!parallel_reduce_lanes}. *)

val parallel_reduce_lanes :
  ?schedule:Chunk.schedule ->
  ?region:region ->
  t ->
  lo:int ->
  hi:int ->
  init:float ->
  combine:(float -> float -> float) ->
  (acc:float array -> cell:int -> lane:int -> int -> unit) ->
  float
(** Allocation-free parallel reduction.  Each lane accumulates into
    its private slot [acc.(cell)] (a plain float-array store — no
    float boxing, no tuples, where a body returning its float would
    box one per index); slots live [lane_pad] floats apart in a
    buffer owned by the scheduler, so lanes never contend on a cache
    line.  Slots start at [init] (which must be a neutral
    element of [combine]); after the barrier the orchestrator folds
    the per-lane slots with [combine] (called once per lane, not per
    index).  Returns [init] on an empty range.  [combine] must be
    associative and commutative — under [Dynamic] scheduling the
    assignment of indices to lanes is nondeterministic. *)

type gc_words = { mutable minor : float; mutable promoted : float }

val gc_words : unit -> gc_words
(** This domain's minor and promoted words so far.  Use it, not
    [Gc.counters], whose tuple can dangle into the minor heap and
    whose minor count is wrong under OCaml 5.1. *)

val timed : t -> region -> (unit -> 'a) -> 'a
(** [timed t region f] runs [f] inline, charging its wall time to
    [region]'s bucket.  Unlike {!parallel_for} this does {e not}
    count as a parallel region ({!regions} is unchanged) — it exists
    so sequential stages (e.g. the ghost-cell fill) appear in the
    same instrumentation stream as the parallel ones. *)

val regions : t -> int
(** Parallel regions executed through this scheduler so far. *)

val reset_regions : t -> unit

val buckets : t -> (region * bucket) list
(** Non-empty timing buckets, in {!all_regions} order.  Buckets are
    updated single-writer (regions are only ever opened from the
    orchestrating domain). *)

val reset_buckets : t -> unit

val shutdown : t -> unit
(** A no-op: the {!Team} is process-wide and never shut down.  Kept
    so that existing callers still build. *)

val describe : t -> string
(** Human-readable name, e.g. ["spmd(8)"]. *)
