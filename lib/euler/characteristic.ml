type basis = { l : float array; r : float array; un : float; c : float }

(* Eigenvector matrices for the x-split Euler equations in the rotated
   frame (rho, rho*un, rho*ut, E); see e.g. Toro, "Riemann Solvers and
   Numerical Methods for Fluid Dynamics", ch. 3.  Rows of [l] /
   columns of [r] are ordered (un-c, un entropy, un shear, un+c). *)
let build ~gamma ~rho ~un ~ut ~p =
  if not (Gas.is_physical ~rho ~p) then
    invalid_arg "Characteristic: non-physical state";
  let c = Gas.sound_speed ~gamma ~rho ~p in
  let q2 = (un *. un) +. (ut *. ut) in
  let h = (c *. c /. (gamma -. 1.)) +. (q2 /. 2.) in
  let b1 = (gamma -. 1.) /. (c *. c) in
  let b2 = b1 *. q2 /. 2. in
  let l =
    [| (b2 +. (un /. c)) /. 2.;
       ((-.b1 *. un) -. (1. /. c)) /. 2.;
       -.b1 *. ut /. 2.;
       b1 /. 2.;
       1. -. b2;
       b1 *. un;
       b1 *. ut;
       -.b1;
       -.ut;
       0.;
       1.;
       0.;
       (b2 -. (un /. c)) /. 2.;
       ((-.b1 *. un) +. (1. /. c)) /. 2.;
       -.b1 *. ut /. 2.;
       b1 /. 2. |]
  in
  let r =
    [| 1.;
       1.;
       0.;
       1.;
       un -. c;
       un;
       0.;
       un +. c;
       ut;
       ut;
       1.;
       ut;
       h -. (un *. c);
       q2 /. 2.;
       ut;
       h +. (un *. c) |]
  in
  { l; r; un; c }

let of_state ~gamma ~rho ~un ~ut ~p = build ~gamma ~rho ~un ~ut ~p

(* ------------------------------------------------------------------ *)
(* Allocation-free variants for the per-interface hot path.
   Without flambda every float tuple and record costs minor-heap
   words per interface, so these write into caller scratch and keep
   the Gas one-liners inlined by hand.  The arithmetic below is a
   term-for-term transcription of [build] / [of_roe_average]; the
   bitwise-equality tests in test_euler pin the two code paths
   together. *)

let[@inline] build_into ~gamma ~rho ~un ~ut ~p ~l ~r =
  if not (rho > 0. && p > 0.) then
    invalid_arg "Characteristic: non-physical state";
  let c = Float.sqrt (gamma *. p /. rho) in
  let q2 = (un *. un) +. (ut *. ut) in
  let h = (c *. c /. (gamma -. 1.)) +. (q2 /. 2.) in
  let b1 = (gamma -. 1.) /. (c *. c) in
  let b2 = b1 *. q2 /. 2. in
  l.(0) <- (b2 +. (un /. c)) /. 2.;
  l.(1) <- ((-.b1 *. un) -. (1. /. c)) /. 2.;
  l.(2) <- -.b1 *. ut /. 2.;
  l.(3) <- b1 /. 2.;
  l.(4) <- 1. -. b2;
  l.(5) <- b1 *. un;
  l.(6) <- b1 *. ut;
  l.(7) <- -.b1;
  l.(8) <- -.ut;
  l.(9) <- 0.;
  l.(10) <- 1.;
  l.(11) <- 0.;
  l.(12) <- (b2 -. (un /. c)) /. 2.;
  l.(13) <- ((-.b1 *. un) +. (1. /. c)) /. 2.;
  l.(14) <- -.b1 *. ut /. 2.;
  l.(15) <- b1 /. 2.;
  r.(0) <- 1.;
  r.(1) <- 1.;
  r.(2) <- 0.;
  r.(3) <- 1.;
  r.(4) <- un -. c;
  r.(5) <- un;
  r.(6) <- 0.;
  r.(7) <- un +. c;
  r.(8) <- ut;
  r.(9) <- ut;
  r.(10) <- 1.;
  r.(11) <- ut;
  r.(12) <- h -. (un *. c);
  r.(13) <- q2 /. 2.;
  r.(14) <- ut;
  r.(15) <- h +. (un *. c)

let roe_into ~gamma ~pr ~l ~r ~ev =
  let rho_l = pr.(0) and un_l = pr.(1) and ut_l = pr.(2) and p_l = pr.(3)
  and rho_r = pr.(4) and un_r = pr.(5) and ut_r = pr.(6) and p_r = pr.(7) in
  if not (rho_l > 0. && p_l > 0.) || not (rho_r > 0. && p_r > 0.) then
    invalid_arg "Characteristic.roe_into: non-physical state";
  let wl = Float.sqrt rho_l and wr = Float.sqrt rho_r in
  let inv = 1. /. (wl +. wr) in
  let un = ((wl *. un_l) +. (wr *. un_r)) *. inv in
  let ut = ((wl *. ut_l) +. (wr *. ut_r)) *. inv in
  let h_l =
    ((p_l /. (gamma -. 1.))
     +. (0.5 *. rho_l *. ((un_l *. un_l) +. (ut_l *. ut_l)))
     +. p_l)
    /. rho_l
  in
  let h_r =
    ((p_r /. (gamma -. 1.))
     +. (0.5 *. rho_r *. ((un_r *. un_r) +. (ut_r *. ut_r)))
     +. p_r)
    /. rho_r
  in
  let h = ((wl *. h_l) +. (wr *. h_r)) *. inv in
  let q2 = (un *. un) +. (ut *. ut) in
  let c2 = (gamma -. 1.) *. (h -. (q2 /. 2.)) in
  let c2 = Float.max c2 1e-14 in
  (* Recover an equivalent (rho, p) pair, as [of_roe_average] does. *)
  let rho = wl *. wr in
  let p = c2 *. rho /. gamma in
  build_into ~gamma ~rho ~un ~ut ~p ~l ~r;
  let c = Float.sqrt (gamma *. p /. rho) in
  ev.(0) <- un -. c;
  ev.(1) <- un;
  ev.(2) <- un;
  ev.(3) <- un +. c

let project_into m q w =
  for row = 0 to 3 do
    let o = row * 4 in
    w.(row) <-
      (m.(o) *. q.(0))
      +. (m.(o + 1) *. q.(1))
      +. (m.(o + 2) *. q.(2))
      +. (m.(o + 3) *. q.(3))
  done

let of_roe_average ~gamma ~left ~right =
  let rho_l, un_l, ut_l, p_l = left and rho_r, un_r, ut_r, p_r = right in
  if not (Gas.is_physical ~rho:rho_l ~p:p_l)
     || not (Gas.is_physical ~rho:rho_r ~p:p_r)
  then invalid_arg "Characteristic.of_roe_average: non-physical state";
  let wl = Float.sqrt rho_l and wr = Float.sqrt rho_r in
  let inv = 1. /. (wl +. wr) in
  let un = ((wl *. un_l) +. (wr *. un_r)) *. inv in
  let ut = ((wl *. ut_l) +. (wr *. ut_r)) *. inv in
  let h_of rho unx utx p =
    (Gas.total_energy ~gamma ~rho ~u:unx ~v:utx ~p +. p) /. rho
  in
  let h =
    ((wl *. h_of rho_l un_l ut_l p_l) +. (wr *. h_of rho_r un_r ut_r p_r))
    *. inv
  in
  let q2 = (un *. un) +. (ut *. ut) in
  let c2 = (gamma -. 1.) *. (h -. (q2 /. 2.)) in
  let c2 = Float.max c2 1e-14 in
  (* Recover an equivalent (rho, p) pair so we can share [build]. *)
  let rho = wl *. wr in
  let p = c2 *. rho /. gamma in
  build ~gamma ~rho ~un ~ut ~p

let to_characteristic b q w =
  let l = b.l in
  for row = 0 to 3 do
    let o = row * 4 in
    w.(row) <-
      (l.(o) *. q.(0))
      +. (l.(o + 1) *. q.(1))
      +. (l.(o + 2) *. q.(2))
      +. (l.(o + 3) *. q.(3))
  done

let from_characteristic b w q =
  let r = b.r in
  for row = 0 to 3 do
    let o = row * 4 in
    q.(row) <-
      (r.(o) *. w.(0))
      +. (r.(o + 1) *. w.(1))
      +. (r.(o + 2) *. w.(2))
      +. (r.(o + 3) *. w.(3))
  done

let eigenvalues b = (b.un -. b.c, b.un, b.un, b.un +. b.c)

let left_matrix b = Array.copy b.l
let right_matrix b = Array.copy b.r
