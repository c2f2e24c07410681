(** Per-region fork/join, modelling OpenMP-style auto-parallel loops.

    Every {!parallel_for} is its own region: the caller publishes the
    loop to a team, runs its own chunk and waits for every other lane
    before returning.  Nothing is folded across regions, which is the
    cost profile the paper blames for the Fortran code's poor scaling
    ("overhead of communication between the threads").

    The team is one process-wide {e hot team}, the way OpenMP runtimes
    (libgomp, Sun's libmtsk) keep their threads: worker domains are
    spawned on first demand, up to the largest [lanes] ever requested
    minus one, and are never joined.  Between regions a worker spins
    for about 100 µs and then parks on a mutex/condition pair, so an
    idle team uses no CPU and needs no shutdown.

    A region issued while the team is busy — from inside a region's
    body, or from a second domain — runs inline on its caller as a
    team of one (lane 0), as OpenMP runs a nested [parallel] by
    default. *)

val parallel_for : lanes:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~lanes ~lo ~hi body] runs [body i] for every
    [i] in [\[lo, hi)], statically chunked over [lanes] lanes of the
    hot team (the caller runs chunk 0).  If a lane raises, the region
    still joins every lane and the first exception is re-raised on
    the caller with its backtrace; the team stays usable.
    @raise Invalid_argument if [lanes < 1]. *)

val parallel_for_lanes :
  lanes:int -> lo:int -> hi:int -> (lane:int -> int -> unit) -> unit
(** Like {!parallel_for}, but the body receives the index of the lane
    running it.  The team is clamped to the iteration count, so the
    lane indices seen by the body always lie in
    [\[0, min lanes (hi - lo))]. *)

val regions_executed : unit -> int
(** Global count of fork/join regions since program start, inline
    ones included. *)

val reset_regions : unit -> unit

val team_domains : unit -> int
(** Worker domains the hot team has spawned so far. *)
