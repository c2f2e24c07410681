type side = West | East | South | North

type kind =
  | Outflow
  | Reflective
  | Inflow of { rho : float; u : float; v : float; p : float }
  | Segmented of (float * float * kind) list
  | Time_dependent of (float -> kind)

let side_name = function
  | West -> "west"
  | East -> "east"
  | South -> "south"
  | North -> "north"

let segment_kind segments coord =
  let rec find = function
    | [] -> Reflective
    | (a, b, k) :: rest -> if coord >= a && coord < b then k else find rest
  in
  find segments

(* [Time_dependent] closures may return any kind (including
   [Segmented], whose pieces may themselves be time-dependent), so
   resolution alternates between evaluating closures at [t] and
   looking up the segment covering [coord], with a depth bound against
   closures that never settle. *)
let max_resolve_depth = 8

let rec resolve_time ~t ~depth = function
  | Time_dependent f ->
    if depth >= max_resolve_depth then
      invalid_arg "Bc: Time_dependent resolution does not terminate";
    resolve_time ~t ~depth:(depth + 1) (f t)
  | k -> k

let resolve_segment ~t segments coord =
  match resolve_time ~t ~depth:0 (segment_kind segments coord) with
  | Segmented _ -> invalid_arg "Bc: nested Segmented"
  | k -> k

let resolve ~t ~coord kind =
  match resolve_time ~t ~depth:0 kind with
  | Segmented segments -> resolve_segment ~t segments coord
  | k -> k

(* A side's kind resolved once per stage: flat, or [Segmented] when it
   varies along the side (pieces are resolved per cell). *)
let resolve_side ~t kind = resolve_time ~t ~depth:0 kind

(* Column and row of the cell [depth] layers inward from [side] at
   [along]: depth 0 is the nearest interior cell, [gl - 1] the mirror a
   reflective wall copies into ghost layer [gl] (1-based), and [-gl]
   that ghost cell itself. *)
let cell_ix g side ~along depth =
  match side with
  | West -> depth
  | East -> g.Grid.nx - 1 - depth
  | South | North -> along

let cell_iy g side ~along depth =
  match side with
  | West | East -> along
  | South -> depth
  | North -> g.Grid.ny - 1 - depth

let cell_offset g side ~along depth =
  Grid.offset g (cell_ix g side ~along depth) (cell_iy g side ~along depth)

let normal_momentum = function
  | West | East -> State.i_mx
  | South | North -> State.i_my

(* Copy cell [src] to cell [dst], negating component [negate] (-1 for
   none). *)
let copy_cell (st : State.t) ~src ~dst ~negate =
  for k = 0 to State.nvar - 1 do
    let v = st.State.q.(k).(src) in
    st.State.q.(k).(dst) <- (if k = negate then -.v else v)
  done

(* Ghost layer [gl] of [side] at [along] under the flat [kind]. *)
let fill_cell st side ~along ~gl kind =
  let g = st.State.grid in
  let dst = cell_offset g side ~along (-gl) in
  match kind with
  | Outflow ->
    copy_cell st ~src:(cell_offset g side ~along 0) ~dst ~negate:(-1)
  | Reflective ->
    copy_cell st
      ~src:(cell_offset g side ~along (gl - 1))
      ~dst ~negate:(normal_momentum side)
  | Inflow { rho; u; v; p } ->
    State.set_primitive st
      (cell_ix g side ~along (-gl))
      (cell_iy g side ~along (-gl))
      ~rho ~u ~v ~p
  | Segmented _ | Time_dependent _ -> assert false

(* Fill every ghost layer of one side at one along-boundary index under
   the side-resolved [kind]; only a [Segmented] side needs the cell
   centre.  The per-cell path of [apply_side] and the fused phase
   bodies share it, so fused and unfused runs execute the same
   stores. *)
let fill_along ~t st side kind along =
  let g = st.State.grid in
  let k =
    match kind with
    | Segmented segments ->
      resolve_segment ~t segments
        (match side with
        | West | East -> Grid.yc g along
        | South | North -> Grid.xc g along)
    | k -> k
  in
  for gl = 1 to g.Grid.ng do
    fill_cell st side ~along ~gl k
  done

(* A South or North side under one flat [kind], filled as whole padded
   rows: each ghost layer is a blit of its source row (ρv negated for
   a reflective wall), or one inflow cell copied along the row.  Ghost
   rows lie outside [\[0, ny)] and source rows inside it or beyond the
   opposite side, so no store feeds a read within the side and layer
   order stores the same bits as along order. *)
let fill_rows st side kind =
  let g = st.State.grid and q = st.State.q in
  let w = g.Grid.row_stride and ng = g.Grid.ng in
  let row depth = Grid.offset g (-ng) (cell_iy g side ~along:0 depth) in
  for gl = 1 to ng do
    let dst = row (-gl) in
    match kind with
    | Outflow ->
      let src = row 0 in
      for k = 0 to State.nvar - 1 do
        Array.blit q.(k) src q.(k) dst w
      done
    | Reflective ->
      let src = row (gl - 1) in
      for k = 0 to State.nvar - 1 do
        let a = q.(k) in
        if k = State.i_my then
          for j = 0 to w - 1 do
            a.(dst + j) <- -.a.(src + j)
          done
        else Array.blit a src a dst w
      done
    | Inflow { rho; u; v; p } ->
      State.set_primitive st (-ng) (cell_iy g side ~along:0 (-gl)) ~rho ~u
        ~v ~p;
      for k = 0 to State.nvar - 1 do
        let a = q.(k) in
        let x = a.(dst) in
        for j = dst + 1 to dst + w - 1 do
          a.(j) <- x
        done
      done
    | Segmented _ | Time_dependent _ -> assert false
  done

let apply_side ~t st side kind =
  match (side, resolve_side ~t kind) with
  | (South | North), ((Outflow | Reflective | Inflow _) as k) ->
    fill_rows st side k
  | _, k ->
    let g = st.State.grid in
    let n =
      match side with West | East -> g.Grid.ny | South | North -> g.Grid.nx
    in
    for along = -g.Grid.ng to n + g.Grid.ng - 1 do
      fill_along ~t st side k along
    done

let kind_of sides side =
  match List.assoc_opt side sides with Some k -> k | None -> Outflow

let apply ~t st sides =
  apply_side ~t st West (kind_of sides West);
  apply_side ~t st East (kind_of sides East);
  apply_side ~t st South (kind_of sides South);
  apply_side ~t st North (kind_of sides North)

(* Tile-aware entry points: fill only the sides where this tile meets
   the physical boundary, preserving the monolithic W, E then S, N
   order.  [Tiled] runs [fill_west_east] over all tiles in one phase
   and [fill_south_north] in the next — the same two-pass structure as
   [phases], at tile granularity.  Interior sides are halos, owned by
   the exchange phase, and must not be touched here. *)
let fill_west_east ~t st sides ~west ~east =
  if west then apply_side ~t st West (kind_of sides West);
  if east then apply_side ~t st East (kind_of sides East)

let fill_south_north ~t st sides ~south ~north =
  if south then apply_side ~t st South (kind_of sides South);
  if north then apply_side ~t st North (kind_of sides North)

(* Dependency analysis for fusing the four sides into phases:

   - West and East write disjoint ghost columns and read interior
     columns the other never writes, {e provided} [nx >= ng] (a
     reflective mirror reaches [ng - 1] cells inward); same for
     South/North with [ny >= ng].
   - South/North span the full padded width, so they {e read} the
     corner ghosts West/East just wrote — they must run after a
     barrier, exactly matching [apply]'s sequential W, E, S, N order.

   Hence two phases: {West ∥ East} then {South ∥ North}, one body call
   per along-index on the per-cell path, so the stores are identical
   to the sequential order no matter how lanes chunk the range.  Grids
   too narrow for the independence argument (e.g. 1D problems with
   [ny = 1 < ng], whose 1D reflective north wall mirrors the south
   ghost rows) fall back to one single-iteration phase running
   [apply], which fills South and North as whole rows. *)
let phases ~t st sides =
  let g = st.State.grid in
  let ng = g.Grid.ng and nx = g.Grid.nx and ny = g.Grid.ny in
  if nx >= ng && ny >= ng then begin
    let vspan = ny + (2 * ng) and hspan = nx + (2 * ng) in
    let side s = resolve_side ~t (kind_of sides s) in
    let kw = side West and ke = side East
    and ks = side South and kn = side North in
    [ { Parallel.Exec.region = Parallel.Exec.Bc;
        lo = 0;
        hi = 2 * vspan;
        body =
          (fun ~lane:_ i ->
            if i < vspan then fill_along ~t st West kw (i - ng)
            else fill_along ~t st East ke (i - vspan - ng)) };
      { Parallel.Exec.region = Parallel.Exec.Bc;
        lo = 0;
        hi = 2 * hspan;
        body =
          (fun ~lane:_ i ->
            if i < hspan then fill_along ~t st South ks (i - ng)
            else fill_along ~t st North kn (i - hspan - ng)) } ]
  end
  else
    [ { Parallel.Exec.region = Parallel.Exec.Bc;
        lo = 0;
        hi = 1;
        body = (fun ~lane:_ _ -> apply ~t st sides) } ]
