(** The process-wide worker team both schedulers run on.

    The team is kept the way OpenMP runtimes (libgomp, Sun's libmtsk)
    keep their threads: worker domains are spawned on first demand, up
    to the largest [parts] ever requested minus one, and are never
    joined.  Between regions a worker spins for about 100 µs and then
    parks on a mutex/condition pair, so an idle team uses no CPU and
    needs no shutdown.  The caller of a region is always lane 0.

    SPMD and fork/join execution differ only in how many regions they
    open per step ({!Exec}); the team itself is the same for both.

    A region issued while the team is busy — from inside a region's
    body, or from a second domain — runs inline on its caller, lane by
    lane in order.  A region of one part always runs inline. *)

val run : parts:int -> (int -> unit) -> unit
(** [run ~parts f] is one region: [f lane] for every [lane] in
    [\[0, parts)], concurrently on the team.  If a lane raises, the
    region still joins every lane and the first exception is re-raised
    on the caller with its backtrace; the team stays usable.  Inline,
    the first exception propagates at once.
    @raise Invalid_argument if [parts < 1]. *)

val run_phases :
  parts:int ->
  phases:int ->
  ?on_phase:(int -> unit) ->
  (phase:int -> lane:int -> unit) ->
  unit
(** [run_phases ~parts ~phases body] runs [body ~phase:k ~lane] for
    [k = 0 .. phases-1] on every lane in {e one} region: lanes stay
    resident and synchronise between phases on an in-region
    sense-reversing barrier instead of returning to the caller — the
    with-loop-folding transformation the paper credits to sac2c,
    performed at the runtime level.  A lane only enters phase [k+1]
    once every lane has finished phase [k].  A lane waiting at the
    barrier spins, then parks, as idle workers do.

    [on_phase k] (if given) runs on lane 0 right after the barrier of
    phase [k] — the hook instrumentation uses to sample per-phase
    timestamps.  A raising lane still attends every remaining barrier;
    the first exception is re-raised after the join, as in {!run}.

    Inline, the phases run one after the other, each over every lane
    in order followed by its [on_phase], so no barrier is ever crossed
    by a single domain.  Zero phases run nothing.
    @raise Invalid_argument if [parts < 1] or [phases < 0]. *)

val domains : unit -> int
(** Worker domains the team has spawned so far. *)
