(** Boundary conditions via ghost-cell filling.

    The two-channel problem (paper §3.2) needs all three kinds: solid
    walls (reflective), supersonic inflow holding the Rankine-Hugoniot
    post-shock state (the channel exits, where "the flow variables in
    the exit sections are not changed during the computation" because
    the exit flow is supersonic at Ms = 2.2), and non-reflecting
    outflow elsewhere.  [Segmented] composes different conditions along
    one side, as the left and bottom boundaries require. *)

type side = West | East | South | North

type kind =
  | Outflow
      (** Zero-gradient extrapolation. *)
  | Reflective
      (** Solid wall: mirrored state with the normal velocity
          negated. *)
  | Inflow of { rho : float; u : float; v : float; p : float }
      (** Fixed primitive state in the ghost cells. *)
  | Segmented of (float * float * kind) list
      (** [(a, b, k)] applies [k] where the along-boundary coordinate
          (y for West/East, x for South/North) lies in [\[a, b)].
          Uncovered stretches default to [Reflective].  Nesting
          [Segmented] is not allowed. *)
  | Time_dependent of (float -> kind)
      (** The condition at simulation time [t] is whatever the closure
          returns at [t] — typically a [Segmented] whose split point
          moves, like the double-Mach-reflection top boundary tracking
          the oblique shock.  Every filling entry point takes the
          current time and resolves this before touching ghost cells;
          the returned kind may itself be [Segmented] (whose pieces may
          again be time-dependent), but resolution must settle within a
          small fixed depth. *)

val resolve : t:float -> coord:float -> kind -> kind
(** The flat ([Outflow]/[Reflective]/[Inflow]) condition governing the
    boundary cell at along-boundary coordinate [coord] at time [t]:
    evaluates [Time_dependent] closures and selects [Segmented]
    pieces until neither remains.  Exposed so alternative solver
    implementations (the Fortran baseline) share the exact resolution
    semantics.
    @raise Invalid_argument on nested [Segmented] or non-terminating
    [Time_dependent] nesting. *)

val resolve_side : t:float -> kind -> kind
(** [kind] with its [Time_dependent] closures evaluated at [t]: a flat
    kind, or a [Segmented] side whose pieces {!resolve} picks per
    cell.  A side's kind is resolved once per fill with this.
    @raise Invalid_argument on non-terminating [Time_dependent]
    nesting. *)

val apply_side : t:float -> State.t -> side -> kind -> unit
(** Fill the ghost layers of one side, resolving time-dependent
    conditions at simulation time [t] once for the side.  A South or
    North side whose kind resolves flat ([Outflow], [Reflective],
    [Inflow]) is filled as whole padded rows, copied from its source
    rows without allocating; West/East sides and [Segmented] sides go
    cell by cell along the side, resolving the piece at each cell
    centre.  Both paths store the same bits.
    @raise Invalid_argument on nested [Segmented]. *)

val apply : t:float -> State.t -> (side * kind) list -> unit
(** Fill all four sides; sides absent from the list get [Outflow].
    West/East are filled over the full padded height first, then
    South/North over the full padded width, so corner ghosts end up
    consistent.  [t] is the time the ghost state should hold — the
    stage time under multi-stage integrators, not the step's start
    time. *)

val fill_west_east :
  t:float -> State.t -> (side * kind) list -> west:bool -> east:bool -> unit
(** Tile-aware entry: fill West then East ghost layers, but only for
    the sides flagged [true] (the sides where a tile touches the
    physical boundary — halo sides belong to the exchange pass).
    Together with {!fill_south_north} this replays {!apply}'s
    W, E, S, N order across two tile phases. *)

val fill_south_north :
  t:float -> State.t -> (side * kind) list -> south:bool -> north:bool -> unit

val phases :
  t:float -> State.t -> (side * kind) list -> Parallel.Exec.phase list
(** The ghost fill as fusable phases for {!Parallel.Exec.parallel_phases}:
    {West ∥ East} in one phase, then {South ∥ North} (which read the
    corner ghosts the first phase wrote) after the barrier — the same
    stores as {!apply} in a compatible order, so results are bitwise
    identical under any scheduler.  Both phases go cell by cell, one
    body call per along-index.  Grids too narrow for the two sides of
    a phase to be independent ([nx < ng] or [ny < ng], e.g. 1D
    problems, whose reflective north wall mirrors the south ghost
    rows) yield a single-iteration phase running {!apply}, which fills
    South and North as whole rows. *)

val side_name : side -> string
