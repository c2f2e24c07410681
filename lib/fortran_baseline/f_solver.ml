open Storage

type autopar = Outer | Inner

let autopar_name = function Outer -> "outer" | Inner -> "inner"

type t = {
  storage : Storage.t;
  bcs : (Euler.Bc.side * Euler.Bc.kind) list;
  autopar : autopar;
  recon : Euler.Recon.kind;
  riemann : Euler.Riemann.kind;
  rk : Euler.Rk.kind;
  mutable time : float;
  mutable steps : int;
  mutable stage_ready : bool;
  (* Ghosts filled and primitives decoded for the current [qc]; lets
     [dt] followed by [step_dt] share one BC/primitives pass, exactly
     as the fused original [step] did. *)
}

let create ?(autopar = Inner) ?(config = Euler.Solver.benchmark_config)
    ~bcs storage =
  if
    storage.Storage.grid.Euler.Grid.ng
    < Euler.Recon.ghost_needed config.Euler.Solver.recon
  then invalid_arg "F_solver.create: grid lacks ghost layers";
  { storage;
    bcs;
    autopar;
    recon = config.Euler.Solver.recon;
    riemann = config.Euler.Solver.riemann;
    rk = config.Euler.Solver.rk;
    time = 0.;
    steps = 0;
    stage_ready = false }

let of_problem ?autopar ?config ?cfl (p : Euler.Setup.problem) =
  create ?autopar ?config ~bcs:p.Euler.Setup.bcs
    (Storage.of_state ?cfl p.Euler.Setup.state)

let state t = Storage.to_state t.storage

(* Run a DO iy / DO ix nest at the configured granularity.  [iy] range
   is inclusive, as in Fortran. *)
let nest ?region t exec ~iy_min ~iy_max body_row =
  match t.autopar with
  | Outer ->
    Parallel.Exec.parallel_for ?region exec ~lo:iy_min ~hi:(iy_max + 1)
      body_row
  | Inner ->
    for iy = iy_min to iy_max do
      body_row iy
    done

(* Inner dimension of a nest: a parallel region per row under [Inner],
   a plain loop under [Outer]. *)
let row ?region t exec ~ix_min ~ix_max body =
  match t.autopar with
  | Outer ->
    for ix = ix_min to ix_max do
      body ix
    done
  | Inner ->
    Parallel.Exec.parallel_for ?region exec ~lo:ix_min ~hi:(ix_max + 1) body

(* SUBROUTINE ComputePrimitives: decode QP from QC over the whole
   padded array (ghosts included; they are current after the BC
   fill). *)
let compute_primitives t exec =
  let s = t.storage in
  let g = s.grid in
  let ng = g.Euler.Grid.ng in
  let region = Parallel.Exec.Rhs in
  nest ~region t exec ~iy_min:(-ng) ~iy_max:(g.Euler.Grid.ny + ng - 1)
    (fun iy ->
      row ~region t exec ~ix_min:(-ng) ~ix_max:(g.Euler.Grid.nx + ng - 1)
        (fun ix ->
          let o = Euler.Grid.offset g ix iy in
          let rc = s.qc.(0).(o) in
          let ux = s.qc.(1).(o) /. rc in
          let uy = s.qc.(2).(o) /. rc in
          let pc =
            (s.gam -. 1.)
            *. (s.qc.(3).(o)
                -. (((s.qc.(1).(o) *. s.qc.(1).(o))
                     +. (s.qc.(2).(o) *. s.qc.(2).(o)))
                    /. (2. *. rc)))
          in
          s.qp.(i_ux).(o) <- ux;
          s.qp.(i_uy).(o) <- uy;
          s.qp.(i_pc).(o) <- pc;
          s.qp.(i_rc).(o) <- rc))

(* SUBROUTINE GetDT — the paper's §4.2 listing.  Each cell's
   eigenvalue is folded into its lane's slot of [acc] (a float-array
   store): a body returning the float would box it, two words per
   cell per step. *)
let get_dt_raw t exec =
  let s = t.storage in
  let g = s.grid in
  let one_d = Euler.Grid.is_1d g in
  let fold_cell acc slot o =
    let ux = s.qp.(i_ux).(o)
    and uy = s.qp.(i_uy).(o)
    and pc = s.qp.(i_pc).(o)
    and rc = s.qp.(i_rc).(o) in
    let c = Float.sqrt (s.gam *. pc /. rc) in
    let ev = (Float.abs ux +. c) /. g.Euler.Grid.dx in
    let ev =
      if one_d then ev else ev +. ((Float.abs uy +. c) /. g.Euler.Grid.dy)
    in
    if ev > acc.(slot) then acc.(slot) <- ev
  in
  let reduce ~hi body =
    Parallel.Exec.parallel_reduce_lanes exec ~lo:0 ~hi
      ~init:Float.neg_infinity ~combine:Float.max
      (fun ~acc ~cell:slot ~lane:_ i -> body acc slot i)
  in
  let ev_max =
    match t.autopar with
    | Outer ->
      reduce ~hi:(g.Euler.Grid.nx * g.Euler.Grid.ny) (fun acc slot cell ->
          let ix = cell mod g.Euler.Grid.nx
          and iy = cell / g.Euler.Grid.nx in
          fold_cell acc slot (Euler.Grid.offset g ix iy))
    | Inner ->
      let m = ref Float.neg_infinity in
      for iy = 0 to g.Euler.Grid.ny - 1 do
        let row_max =
          reduce ~hi:g.Euler.Grid.nx (fun acc slot ix ->
              fold_cell acc slot (Euler.Grid.offset g ix iy))
        in
        if row_max > !m then m := row_max
      done;
      !m
  in
  s.cfl /. ev_max

(* Rusanov flux between the cells at offsets [ol] and [or_], stored
   into [f] at [ol]; matches Riemann.rusanov so the implementations
   can be compared cell by cell.  [i_un]/[i_ut] pick the normal and
   tangential velocities out of QP and [k_mn]/[k_mt] are the momenta
   they map back onto.  Written straight into [f] with the average
   expanded by hand, so a face allocates nothing. *)
let face_flux s f ~ol ~or_ ~i_un ~i_ut k_mn k_mt =
  let rl = s.qp.(i_rc).(ol)
  and rr = s.qp.(i_rc).(or_)
  and pl = s.qp.(i_pc).(ol)
  and pr = s.qp.(i_pc).(or_)
  and unl = s.qp.(i_un).(ol)
  and unr = s.qp.(i_un).(or_)
  and utl = s.qp.(i_ut).(ol)
  and utr = s.qp.(i_ut).(or_) in
  let cl = Float.sqrt (s.gam *. pl /. rl)
  and cr = Float.sqrt (s.gam *. pr /. rr) in
  let smax = Float.max (Float.abs unl +. cl) (Float.abs unr +. cr) in
  let hs = 0.5 *. smax in
  let el = s.qc.(3).(ol) and er = s.qc.(3).(or_) in
  let ml = rl *. unl and mr = rr *. unr in
  f.(0).(ol) <- (0.5 *. (ml +. mr)) -. (hs *. (rr -. rl));
  f.(k_mn).(ol) <-
    (0.5 *. (((ml *. unl) +. pl) +. ((mr *. unr) +. pr)))
    -. (hs *. ((rr *. unr) -. (rl *. unl)));
  f.(k_mt).(ol) <-
    (0.5 *. ((ml *. utl) +. (mr *. utr)))
    -. (hs *. ((rr *. utr) -. (rl *. utl)));
  f.(3).(ol) <-
    (0.5 *. ((unl *. (el +. pl)) +. (unr *. (er +. pr))))
    -. (hs *. (er -. el))

(* High-order face flux: characteristic projection of the stencil,
   monotone reconstruction, approximate Riemann solve — the same
   numerics as Euler.Rhs.line_fluxes, written face-at-a-time the way
   the original Fortran organises it.  [offset_of s'] gives the flat
   offset of stencil cell s' (0 .. width-1) around the face; [k_n] is
   the conserved index of the normal momentum.  All scratch is local to
   the face: faces of one row run on different lanes. *)
let face_flux_highorder t ~offset_of ~k_n =
  let s = t.storage in
  let gamma = s.gam in
  let k_t = if k_n = 1 then 2 else 1 in
  let width = Euler.Recon.stencil_width t.recon in
  let half = width / 2 in
  let ol = offset_of (half - 1) and or_ = offset_of half in
  let prim o =
    ( s.qp.(i_rc).(o),
      (if k_n = 1 then s.qp.(i_ux).(o) else s.qp.(i_uy).(o)),
      (if k_n = 1 then s.qp.(i_uy).(o) else s.qp.(i_ux).(o)),
      s.qp.(i_pc).(o) )
  in
  let (rho_l, un_l, ut_l, p_l) = prim ol in
  let (rho_r, un_r, ut_r, p_r) = prim or_ in
  let basis =
    Euler.Characteristic.of_roe_average ~gamma
      ~left:(rho_l, un_l, ut_l, p_l) ~right:(rho_r, un_r, ut_r, p_r)
  in
  let qs = Array.make 4 0.
  and wv = Array.make 4 0.
  and wst = Array.make (width * 4) 0.
  and window = Array.make width 0.
  and wl = Array.make 4 0.
  and wr = Array.make 4 0.
  and ql = Array.make 4 0.
  and qr = Array.make 4 0.
  and f = Array.make 4 0. in
  for s' = 0 to width - 1 do
    let o = offset_of s' in
    qs.(0) <- s.qc.(0).(o);
    qs.(1) <- s.qc.(k_n).(o);
    qs.(2) <- s.qc.(k_t).(o);
    qs.(3) <- s.qc.(3).(o);
    Euler.Characteristic.to_characteristic basis qs wv;
    for k = 0 to 3 do
      wst.((s' * 4) + k) <- wv.(k)
    done
  done;
  for k = 0 to 3 do
    for s' = 0 to width - 1 do
      window.(s') <- wst.((s' * 4) + k)
    done;
    let a, b = Euler.Recon.left_right_window t.recon window in
    wl.(k) <- a;
    wr.(k) <- b
  done;
  Euler.Characteristic.from_characteristic basis wl ql;
  Euler.Characteristic.from_characteristic basis wr qr;
  let decode q =
    let rho = q.(0) in
    let un = q.(1) /. rho and ut = q.(2) /. rho in
    let p =
      (gamma -. 1.)
      *. (q.(3) -. (((q.(1) *. q.(1)) +. (q.(2) *. q.(2))) /. (2. *. rho)))
    in
    (rho, un, ut, p)
  in
  let rl, ul, tl, pl = decode ql and rr, ur, tr, pr = decode qr in
  let floor_ = 1e-12 in
  let rl, ul, tl, pl =
    if rl > floor_ && pl > floor_ then (rl, ul, tl, pl)
    else (rho_l, un_l, ut_l, p_l)
  and rr, ur, tr, pr =
    if rr > floor_ && pr > floor_ then (rr, ur, tr, pr)
    else (rho_r, un_r, ut_r, p_r)
  in
  Euler.Riemann.flux_into t.riemann ~gamma ~rho_l:rl ~un_l:ul ~ut_l:tl
    ~p_l:pl ~rho_r:rr ~un_r:ur ~ut_r:tr ~p_r:pr ~f;
  (f.(0), (k_n, f.(1)), (k_t, f.(2)), f.(3))

(* Store a high-order face flux into [f] at [ol], mapping the
   rotated-frame components back onto (rho, mx, my, E). *)
let store f ol (f0, (k1, f1), (k2, f2), f3) =
  f.(0).(ol) <- f0;
  f.(k1).(ol) <- f1;
  f.(k2).(ol) <- f2;
  f.(3).(ol) <- f3

(* SUBROUTINE FluxX: fluxes through x-faces; face (ix+1/2, iy) is
   stored at the offset of cell ix. *)
let flux_x t exec =
  let s = t.storage in
  let g = s.grid in
  let pc = t.recon = Euler.Recon.Piecewise_constant
           && t.riemann = Euler.Riemann.Rusanov in
  let half = Euler.Recon.stencil_width t.recon / 2 in
  nest ~region:Parallel.Exec.Rhs t exec ~iy_min:0
    ~iy_max:(g.Euler.Grid.ny - 1) (fun iy ->
      row ~region:Parallel.Exec.Rhs t exec ~ix_min:(-1)
        ~ix_max:(g.Euler.Grid.nx - 1) (fun ix ->
          let ol = Euler.Grid.offset g ix iy in
          if pc then
            face_flux s s.fx ~ol ~or_:(Euler.Grid.offset g (ix + 1) iy)
              ~i_un:i_ux ~i_ut:i_uy 1 2
          else
            store s.fx ol
              (face_flux_highorder t
                 ~offset_of:(fun s' ->
                   Euler.Grid.offset g (ix - half + 1 + s') iy)
                 ~k_n:1)))

(* SUBROUTINE FluxY: face (ix, iy+1/2) stored at the offset of cell
   iy. *)
let flux_y t exec =
  let s = t.storage in
  let g = s.grid in
  let pc = t.recon = Euler.Recon.Piecewise_constant
           && t.riemann = Euler.Riemann.Rusanov in
  let half = Euler.Recon.stencil_width t.recon / 2 in
  nest ~region:Parallel.Exec.Rhs t exec ~iy_min:(-1)
    ~iy_max:(g.Euler.Grid.ny - 1) (fun iy ->
      row ~region:Parallel.Exec.Rhs t exec ~ix_min:0
        ~ix_max:(g.Euler.Grid.nx - 1) (fun ix ->
          let ol = Euler.Grid.offset g ix iy in
          if pc then
            face_flux s s.fy ~ol ~or_:(Euler.Grid.offset g ix (iy + 1))
              ~i_un:i_uy ~i_ut:i_ux 2 1
          else
            store s.fy ol
              (face_flux_highorder t
                 ~offset_of:(fun s' ->
                   Euler.Grid.offset g ix (iy - half + 1 + s'))
                 ~k_n:2)))

(* SUBROUTINE FluxDiv: DQ = -(FX(i) - FX(i-1))/DX - (FY(j) - FY(j-1))/DY *)
let flux_div t exec =
  let s = t.storage in
  let g = s.grid in
  let one_d = Euler.Grid.is_1d g in
  let inv_dx = 1. /. g.Euler.Grid.dx and inv_dy = 1. /. g.Euler.Grid.dy in
  nest ~region:Parallel.Exec.Rhs t exec ~iy_min:0
    ~iy_max:(g.Euler.Grid.ny - 1) (fun iy ->
      row ~region:Parallel.Exec.Rhs t exec ~ix_min:0
        ~ix_max:(g.Euler.Grid.nx - 1) (fun ix ->
          let o = Euler.Grid.offset g ix iy in
          let ox = Euler.Grid.offset g (ix - 1) iy
          and oy = Euler.Grid.offset g ix (iy - 1) in
          for k = 0 to 3 do
            let d = -.(s.fx.(k).(o) -. s.fx.(k).(ox)) *. inv_dx in
            let d =
              if one_d then d
              else d -. ((s.fy.(k).(o) -. s.fy.(k).(oy)) *. inv_dy)
            in
            s.dq.(k).(o) <- d
          done))

(* RK stage update: QC = CA*Q0 + CB*QC + CD*DT*DQ on the interior. *)
let update t exec ~ca ~cb ~cd =
  let s = t.storage in
  let g = s.grid in
  nest ~region:Parallel.Exec.Rk_combine t exec ~iy_min:0
    ~iy_max:(g.Euler.Grid.ny - 1) (fun iy ->
      row ~region:Parallel.Exec.Rk_combine t exec ~ix_min:0
        ~ix_max:(g.Euler.Grid.nx - 1) (fun ix ->
          let o = Euler.Grid.offset g ix iy in
          for k = 0 to 3 do
            s.qc.(k).(o) <-
              (ca *. s.q0.(k).(o)) +. (cb *. s.qc.(k).(o))
              +. (cd *. s.dq.(k).(o))
          done))

let save_q0 t exec =
  let s = t.storage in
  let g = s.grid in
  nest ~region:Parallel.Exec.Rk_combine t exec ~iy_min:0
    ~iy_max:(g.Euler.Grid.ny - 1) (fun iy ->
      row ~region:Parallel.Exec.Rk_combine t exec ~ix_min:0
        ~ix_max:(g.Euler.Grid.nx - 1) (fun ix ->
          let o = Euler.Grid.offset g ix iy in
          for k = 0 to 3 do
            s.q0.(k).(o) <- s.qc.(k).(o)
          done))

(* Offset of the cell [depth] layers inward from [side] at [along]:
   depth 0 is the nearest interior cell, [gl - 1] the mirror a
   reflective wall copies into ghost layer [gl], [-gl] that ghost. *)
let bc_offset g side along depth =
  match side with
  | Euler.Bc.West -> Euler.Grid.offset g depth along
  | Euler.Bc.East -> Euler.Grid.offset g (g.Euler.Grid.nx - 1 - depth) along
  | Euler.Bc.South -> Euler.Grid.offset g along depth
  | Euler.Bc.North -> Euler.Grid.offset g along (g.Euler.Grid.ny - 1 - depth)

let bc_copy s ~src ~dst ~negate =
  for k = 0 to 3 do
    let v = s.qc.(k).(src) in
    s.qc.(k).(dst) <- (if k = negate then -.v else v)
  done

let bc_inflow s ~dst ~rho ~u ~v ~p =
  s.qc.(0).(dst) <- rho;
  s.qc.(1).(dst) <- rho *. u;
  s.qc.(2).(dst) <- rho *. v;
  s.qc.(3).(dst) <-
    (p /. (s.gam -. 1.)) +. (0.5 *. rho *. ((u *. u) +. (v *. v)))

(* DO along / DO gl over one side.  Segment lookup and time-dependent
   evaluation are Euler.Bc's resolution, shared verbatim so the two
   implementations can never disagree on which condition governs a
   boundary cell; the cell centre is computed only for a [Segmented]
   side. *)
let bc_fill s ~tbc side kind =
  let g = s.grid in
  let ng = g.Euler.Grid.ng in
  let hi, negate =
    match side with
    | Euler.Bc.West | Euler.Bc.East -> (g.Euler.Grid.ny + ng - 1, 1)
    | Euler.Bc.South | Euler.Bc.North -> (g.Euler.Grid.nx + ng - 1, 2)
  in
  let kind = Euler.Bc.resolve_side ~t:tbc kind in
  for along = -ng to hi do
    let k =
      match kind with
      | Euler.Bc.Segmented _ ->
        let coord =
          match side with
          | Euler.Bc.West | Euler.Bc.East -> Euler.Grid.yc g along
          | Euler.Bc.South | Euler.Bc.North -> Euler.Grid.xc g along
        in
        Euler.Bc.resolve ~t:tbc ~coord kind
      | k -> k
    in
    for gl = 1 to ng do
      let ghost = bc_offset g side along (-gl) in
      match k with
      | Euler.Bc.Outflow ->
        bc_copy s ~src:(bc_offset g side along 0) ~dst:ghost ~negate:(-1)
      | Euler.Bc.Reflective ->
        bc_copy s ~src:(bc_offset g side along (gl - 1)) ~dst:ghost ~negate
      | Euler.Bc.Inflow { rho; u; v; p } -> bc_inflow s ~dst:ghost ~rho ~u ~v ~p
      | Euler.Bc.Segmented _ | Euler.Bc.Time_dependent _ ->
        invalid_arg "F_solver: unresolved boundary kind"
    done
  done

let bc_kind t side =
  match List.assoc_opt side t.bcs with Some k -> k | None -> Euler.Bc.Outflow

(* SUBROUTINE ApplyBC: ghost fill, same order and semantics as
   Euler.Bc (west/east over the full padded height, then south/north
   over the full padded width), cell by cell as the Fortran loops do.
   [tbc] is the simulation time the ghost state should hold — the
   stage time under RK2/RK3. *)
let apply_bc t ~tbc =
  let s = t.storage in
  bc_fill s ~tbc Euler.Bc.West (bc_kind t Euler.Bc.West);
  bc_fill s ~tbc Euler.Bc.East (bc_kind t Euler.Bc.East);
  bc_fill s ~tbc Euler.Bc.South (bc_kind t Euler.Bc.South);
  bc_fill s ~tbc Euler.Bc.North (bc_kind t Euler.Bc.North)

(* Ghost fill + primitive decode for the current [qc] (the fill is
   charged to the Bc timing bucket); a no-op when already current, so
   [dt] followed by [step_dt] costs exactly what the fused [step]
   did. *)
let prepare t exec =
  if not t.stage_ready then begin
    Parallel.Exec.timed exec Parallel.Exec.Bc (fun () ->
        apply_bc t ~tbc:t.time);
    compute_primitives t exec;
    t.stage_ready <- true
  end

let get_dt t exec =
  prepare t exec;
  get_dt_raw t exec

let dt = get_dt

let stage t exec ~tbc =
  Parallel.Exec.timed exec Parallel.Exec.Bc (fun () -> apply_bc t ~tbc);
  compute_primitives t exec;
  flux_x t exec;
  if not (Euler.Grid.is_1d t.storage.grid) then flux_y t exec;
  flux_div t exec

let step_dt t exec dt =
  prepare t exec;
  save_q0 t exec;
  (* Stage 1 reuses the primitives [prepare] just computed (ghosts at
     the step's start time); the later stage states approximate the
     solution at t + dt and (RK3) t + dt/2, which is where
     time-dependent boundaries are evaluated. *)
  flux_x t exec;
  if not (Euler.Grid.is_1d t.storage.grid) then flux_y t exec;
  flux_div t exec;
  update t exec ~ca:1. ~cb:0. ~cd:dt;
  (match t.rk with
   | Euler.Rk.Euler1 -> ()
   | Euler.Rk.Tvd_rk2 ->
     stage t exec ~tbc:(t.time +. dt);
     update t exec ~ca:0.5 ~cb:0.5 ~cd:(0.5 *. dt)
   | Euler.Rk.Tvd_rk3 ->
     stage t exec ~tbc:(t.time +. dt);
     update t exec ~ca:0.75 ~cb:0.25 ~cd:(0.25 *. dt);
     stage t exec ~tbc:(t.time +. (0.5 *. dt));
     update t exec ~ca:(1. /. 3.) ~cb:(2. /. 3.) ~cd:(2. /. 3. *. dt));
  t.time <- t.time +. dt;
  t.steps <- t.steps + 1;
  t.stage_ready <- false

let step t exec =
  let dt = get_dt t exec in
  step_dt t exec dt;
  dt

let run_steps t exec n =
  for _ = 1 to n do
    ignore (step t exec)
  done
