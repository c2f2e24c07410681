type kind = Rusanov | Hll | Hllc | Roe | Exact

let all =
  [ ("rusanov", Rusanov); ("hll", Hll); ("hllc", Hllc); ("roe", Roe);
    ("exact", Exact) ]

let name = function
  | Rusanov -> "rusanov"
  | Hll -> "hll"
  | Hllc -> "hllc"
  | Roe -> "roe"
  | Exact -> "exact"

let of_string s = List.assoc_opt (String.lowercase_ascii s) all

let physical_flux_into ~gamma ~rho ~un ~ut ~p ~f =
  let e = Gas.total_energy ~gamma ~rho ~u:un ~v:ut ~p in
  let m = rho *. un in
  f.(0) <- m;
  f.(1) <- (m *. un) +. p;
  f.(2) <- m *. ut;
  f.(3) <- un *. (e +. p)

(* Roe-averaged normal velocity and sound speed, for wave-speed
   estimates shared by HLL/HLLC. *)
let roe_un_c ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r =
  let wl = Float.sqrt rho_l and wr = Float.sqrt rho_r in
  let inv = 1. /. (wl +. wr) in
  let un = ((wl *. un_l) +. (wr *. un_r)) *. inv in
  let ut = ((wl *. ut_l) +. (wr *. ut_r)) *. inv in
  let h rho u v p = (Gas.total_energy ~gamma ~rho ~u ~v ~p +. p) /. rho in
  let hh =
    ((wl *. h rho_l un_l ut_l p_l) +. (wr *. h rho_r un_r ut_r p_r)) *. inv
  in
  let q2 = (un *. un) +. (ut *. ut) in
  let c = Float.sqrt (Float.max ((gamma -. 1.) *. (hh -. (q2 /. 2.))) 1e-14) in
  (un, c)

let check_physical rho p =
  if not (Gas.is_physical ~rho ~p) then
    invalid_arg "Riemann: non-physical input state"

let rusanov ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f =
  let c_l = Gas.sound_speed ~gamma ~rho:rho_l ~p:p_l
  and c_r = Gas.sound_speed ~gamma ~rho:rho_r ~p:p_r in
  let smax =
    Float.max (Float.abs un_l +. c_l) (Float.abs un_r +. c_r)
  in
  let e_l = Gas.total_energy ~gamma ~rho:rho_l ~u:un_l ~v:ut_l ~p:p_l
  and e_r = Gas.total_energy ~gamma ~rho:rho_r ~u:un_r ~v:ut_r ~p:p_r in
  let m_l = rho_l *. un_l and m_r = rho_r *. un_r in
  let avg fl fr du = (0.5 *. (fl +. fr)) -. (0.5 *. smax *. du) in
  f.(0) <- avg m_l m_r (rho_r -. rho_l);
  f.(1) <-
    avg ((m_l *. un_l) +. p_l) ((m_r *. un_r) +. p_r)
      ((rho_r *. un_r) -. (rho_l *. un_l));
  f.(2) <- avg (m_l *. ut_l) (m_r *. ut_r)
      ((rho_r *. ut_r) -. (rho_l *. ut_l));
  f.(3) <- avg (un_l *. (e_l +. p_l)) (un_r *. (e_r +. p_r)) (e_r -. e_l)

(* Einfeldt wave-speed estimates. *)
let hll_speeds ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r =
  let c_l = Gas.sound_speed ~gamma ~rho:rho_l ~p:p_l
  and c_r = Gas.sound_speed ~gamma ~rho:rho_r ~p:p_r in
  let u_roe, c_roe =
    roe_un_c ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r
  in
  let sl = Float.min (un_l -. c_l) (u_roe -. c_roe)
  and sr = Float.max (un_r +. c_r) (u_roe +. c_roe) in
  (sl, sr)

let hll ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f =
  let sl, sr =
    hll_speeds ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r
  in
  if sl >= 0. then physical_flux_into ~gamma ~rho:rho_l ~un:un_l ~ut:ut_l ~p:p_l ~f
  else if sr <= 0. then
    physical_flux_into ~gamma ~rho:rho_r ~un:un_r ~ut:ut_r ~p:p_r ~f
  else begin
    let fl = Array.make 4 0. and fr = Array.make 4 0. in
    physical_flux_into ~gamma ~rho:rho_l ~un:un_l ~ut:ut_l ~p:p_l ~f:fl;
    physical_flux_into ~gamma ~rho:rho_r ~un:un_r ~ut:ut_r ~p:p_r ~f:fr;
    let e_l = Gas.total_energy ~gamma ~rho:rho_l ~u:un_l ~v:ut_l ~p:p_l
    and e_r = Gas.total_energy ~gamma ~rho:rho_r ~u:un_r ~v:ut_r ~p:p_r in
    let du k =
      match k with
      | 0 -> rho_r -. rho_l
      | 1 -> (rho_r *. un_r) -. (rho_l *. un_l)
      | 2 -> (rho_r *. ut_r) -. (rho_l *. ut_l)
      | _ -> e_r -. e_l
    in
    let inv = 1. /. (sr -. sl) in
    for k = 0 to 3 do
      f.(k) <-
        (((sr *. fl.(k)) -. (sl *. fr.(k))) +. (sl *. sr *. du k)) *. inv
    done
  end

let hllc ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f =
  let sl, sr =
    hll_speeds ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r
  in
  if sl >= 0. then physical_flux_into ~gamma ~rho:rho_l ~un:un_l ~ut:ut_l ~p:p_l ~f
  else if sr <= 0. then
    physical_flux_into ~gamma ~rho:rho_r ~un:un_r ~ut:ut_r ~p:p_r ~f
  else begin
    (* Toro's contact-wave speed. *)
    let s_star =
      ((p_r -. p_l)
       +. (rho_l *. un_l *. (sl -. un_l))
       -. (rho_r *. un_r *. (sr -. un_r)))
      /. ((rho_l *. (sl -. un_l)) -. (rho_r *. (sr -. un_r)))
    in
    let side rho un ut p s =
      let e = Gas.total_energy ~gamma ~rho ~u:un ~v:ut ~p in
      let coef = rho *. (s -. un) /. (s -. s_star) in
      let u_star =
        [| coef;
           coef *. s_star;
           coef *. ut;
           coef
           *. ((e /. rho)
               +. ((s_star -. un)
                   *. (s_star +. (p /. (rho *. (s -. un)))))) |]
      in
      let u = [| rho; rho *. un; rho *. ut; e |] in
      let fk = Array.make 4 0. in
      physical_flux_into ~gamma ~rho ~un ~ut ~p ~f:fk;
      for k = 0 to 3 do
        f.(k) <- fk.(k) +. (s *. (u_star.(k) -. u.(k)))
      done
    in
    if s_star >= 0. then side rho_l un_l ut_l p_l sl
    else side rho_r un_r ut_r p_r sr
  end

(* Harten's entropy fix: smooth |lambda| near zero to keep expansion
   shocks out of transonic rarefactions. *)
let[@inline] entropy_fixed_abs lambda eps =
  let a = Float.abs lambda in
  if a >= eps || eps <= 0. then a
  else (((lambda *. lambda) /. eps) +. eps) /. 2.

let roe ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f =
  let basis =
    Characteristic.of_roe_average ~gamma
      ~left:(rho_l, un_l, ut_l, p_l)
      ~right:(rho_r, un_r, ut_r, p_r)
  in
  let e_l = Gas.total_energy ~gamma ~rho:rho_l ~u:un_l ~v:ut_l ~p:p_l
  and e_r = Gas.total_energy ~gamma ~rho:rho_r ~u:un_r ~v:ut_r ~p:p_r in
  let du =
    [| rho_r -. rho_l;
       (rho_r *. un_r) -. (rho_l *. un_l);
       (rho_r *. ut_r) -. (rho_l *. ut_l);
       e_r -. e_l |]
  in
  let alpha = Array.make 4 0. in
  Characteristic.to_characteristic basis du alpha;
  let l1, l2, l3, l4 = Characteristic.eigenvalues basis in
  let c_roe = (l4 -. l1) /. 2. in
  let eps = 0.1 *. c_roe in
  let lam =
    [| entropy_fixed_abs l1 eps;
       Float.abs l2;
       Float.abs l3;
       entropy_fixed_abs l4 eps |]
  in
  let fl = Array.make 4 0. and fr = Array.make 4 0. in
  physical_flux_into ~gamma ~rho:rho_l ~un:un_l ~ut:ut_l ~p:p_l ~f:fl;
  physical_flux_into ~gamma ~rho:rho_r ~un:un_r ~ut:ut_r ~p:p_r ~f:fr;
  (* dissipation = R |Lambda| alpha *)
  let w = [| lam.(0) *. alpha.(0);
             lam.(1) *. alpha.(1);
             lam.(2) *. alpha.(2);
             lam.(3) *. alpha.(3) |] in
  let diss = Array.make 4 0. in
  Characteristic.from_characteristic basis w diss;
  for k = 0 to 3 do
    f.(k) <- (0.5 *. (fl.(k) +. fr.(k))) -. (0.5 *. diss.(k))
  done

(* Godunov's scheme: sample the exact similarity solution at x/t = 0
   and take its physical flux.  The Euler equations advect the
   transverse velocity passively, so it upwinds with the contact. *)
let exact_flux ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f =
  let rho, un, p =
    Exact_riemann.sample ~gamma ~left:(rho_l, un_l, p_l)
      ~right:(rho_r, un_r, p_r) ~xi:0.
  in
  let star =
    Exact_riemann.solve ~gamma ~left:(rho_l, un_l, p_l)
      ~right:(rho_r, un_r, p_r) ()
  in
  let ut =
    if star.Exact_riemann.u_star >= 0. then ut_l else ut_r
  in
  physical_flux_into ~gamma ~rho ~un ~ut ~p ~f

let flux_into kind ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f
  =
  check_physical rho_l p_l;
  check_physical rho_r p_r;
  match kind with
  | Rusanov ->
    rusanov ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f
  | Hll -> hll ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f
  | Hllc -> hllc ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f
  | Roe -> roe ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f
  | Exact ->
    exact_flux ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f

let flux kind ~gamma ~left ~right =
  let rho_l, un_l, ut_l, p_l = left and rho_r, un_r, ut_r, p_r = right in
  let f = Array.make 4 0. in
  flux_into kind ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r ~un_r ~ut_r ~p_r ~f;
  f

(* ------------------------------------------------------------------ *)
(* Allocation-free solver family for the per-interface hot path.
   [flux_into] above boxes its nine float arguments at every call and
   the solvers allocate temporaries internally (non-flambda ocamlopt
   does not unbox across calls), which at one call per interface per
   sweep per RK stage adds up to megabytes per step.  The [_pr]
   variants read both states from one packed primitive array, keep
   the Gas one-liners inlined by hand, and park every temporary in a
   caller-owned [scratch].  The arithmetic is a term-for-term
   transcription of the solvers above; a bitwise-equality test in
   test_euler pins the two families together. *)

type scratch = {
  cl : float array; (* 16: left eigenvectors of the Roe basis *)
  cr : float array; (* 16: right eigenvectors *)
  ev : float array; (* 4: Roe wave speeds *)
  v0 : float array; (* 4-vector temporaries *)
  v1 : float array;
  v2 : float array;
  v3 : float array;
  v4 : float array;
  v5 : float array;
}

let make_scratch () =
  { cl = Array.make 16 0.;
    cr = Array.make 16 0.;
    ev = Array.make 4 0.;
    v0 = Array.make 4 0.;
    v1 = Array.make 4 0.;
    v2 = Array.make 4 0.;
    v3 = Array.make 4 0.;
    v4 = Array.make 4 0.;
    v5 = Array.make 4 0. }

(* [physical_flux_into] of the state packed at offset [o] of [pr]. *)
let phys_pr ~gamma pr o f =
  let rho = pr.(o) and un = pr.(o + 1) and ut = pr.(o + 2)
  and p = pr.(o + 3) in
  let e = (p /. (gamma -. 1.)) +. (0.5 *. rho *. ((un *. un) +. (ut *. ut))) in
  let m = rho *. un in
  f.(0) <- m;
  f.(1) <- (m *. un) +. p;
  f.(2) <- m *. ut;
  f.(3) <- un *. (e +. p)

let rusanov_pr ~gamma pr f =
  let rho_l = pr.(0) and un_l = pr.(1) and ut_l = pr.(2) and p_l = pr.(3)
  and rho_r = pr.(4) and un_r = pr.(5) and ut_r = pr.(6) and p_r = pr.(7) in
  let c_l = Float.sqrt (gamma *. p_l /. rho_l)
  and c_r = Float.sqrt (gamma *. p_r /. rho_r) in
  let smax = Float.max (Float.abs un_l +. c_l) (Float.abs un_r +. c_r) in
  let e_l =
    (p_l /. (gamma -. 1.))
    +. (0.5 *. rho_l *. ((un_l *. un_l) +. (ut_l *. ut_l)))
  and e_r =
    (p_r /. (gamma -. 1.))
    +. (0.5 *. rho_r *. ((un_r *. un_r) +. (ut_r *. ut_r)))
  in
  let m_l = rho_l *. un_l and m_r = rho_r *. un_r in
  f.(0) <- (0.5 *. (m_l +. m_r)) -. (0.5 *. smax *. (rho_r -. rho_l));
  f.(1) <-
    (0.5 *. (((m_l *. un_l) +. p_l) +. ((m_r *. un_r) +. p_r)))
    -. (0.5 *. smax *. ((rho_r *. un_r) -. (rho_l *. un_l)));
  f.(2) <-
    (0.5 *. ((m_l *. ut_l) +. (m_r *. ut_r)))
    -. (0.5 *. smax *. ((rho_r *. ut_r) -. (rho_l *. ut_l)));
  f.(3) <-
    (0.5 *. ((un_l *. (e_l +. p_l)) +. (un_r *. (e_r +. p_r))))
    -. (0.5 *. smax *. (e_r -. e_l))

(* Einfeldt wave speed [sl] ([which = 0]) or [sr] ([which = 1]),
   inlining [roe_un_c].  Both speeds share the Roe average, so the
   caller gets them from two calls that recompute it — still far
   cheaper than one boxed-tuple return per interface. *)
let[@inline] hll_speed_pr ~gamma pr which =
  let rho_l = pr.(0) and un_l = pr.(1) and ut_l = pr.(2) and p_l = pr.(3)
  and rho_r = pr.(4) and un_r = pr.(5) and ut_r = pr.(6) and p_r = pr.(7) in
  let wl = Float.sqrt rho_l and wr = Float.sqrt rho_r in
  let inv = 1. /. (wl +. wr) in
  let un = ((wl *. un_l) +. (wr *. un_r)) *. inv in
  let ut = ((wl *. ut_l) +. (wr *. ut_r)) *. inv in
  let h_l =
    ((p_l /. (gamma -. 1.))
     +. (0.5 *. rho_l *. ((un_l *. un_l) +. (ut_l *. ut_l)))
     +. p_l)
    /. rho_l
  and h_r =
    ((p_r /. (gamma -. 1.))
     +. (0.5 *. rho_r *. ((un_r *. un_r) +. (ut_r *. ut_r)))
     +. p_r)
    /. rho_r
  in
  let hh = ((wl *. h_l) +. (wr *. h_r)) *. inv in
  let q2 = (un *. un) +. (ut *. ut) in
  let c_roe =
    Float.sqrt (Float.max ((gamma -. 1.) *. (hh -. (q2 /. 2.))) 1e-14)
  in
  if which = 0 then begin
    let c_l = Float.sqrt (gamma *. p_l /. rho_l) in
    Float.min (un_l -. c_l) (un -. c_roe)
  end
  else begin
    let c_r = Float.sqrt (gamma *. p_r /. rho_r) in
    Float.max (un_r +. c_r) (un +. c_roe)
  end

let hll_pr ~gamma pr s f =
  let sl = hll_speed_pr ~gamma pr 0 and sr = hll_speed_pr ~gamma pr 1 in
  if sl >= 0. then phys_pr ~gamma pr 0 f
  else if sr <= 0. then phys_pr ~gamma pr 4 f
  else begin
    let rho_l = pr.(0) and un_l = pr.(1) and ut_l = pr.(2) and p_l = pr.(3)
    and rho_r = pr.(4) and un_r = pr.(5) and ut_r = pr.(6)
    and p_r = pr.(7) in
    let fl = s.v0 and fr = s.v1 in
    phys_pr ~gamma pr 0 fl;
    phys_pr ~gamma pr 4 fr;
    let e_l =
      (p_l /. (gamma -. 1.))
      +. (0.5 *. rho_l *. ((un_l *. un_l) +. (ut_l *. ut_l)))
    and e_r =
      (p_r /. (gamma -. 1.))
      +. (0.5 *. rho_r *. ((un_r *. un_r) +. (ut_r *. ut_r)))
    in
    let inv = 1. /. (sr -. sl) in
    f.(0) <-
      (((sr *. fl.(0)) -. (sl *. fr.(0))) +. (sl *. sr *. (rho_r -. rho_l)))
      *. inv;
    f.(1) <-
      (((sr *. fl.(1)) -. (sl *. fr.(1)))
       +. (sl *. sr *. ((rho_r *. un_r) -. (rho_l *. un_l))))
      *. inv;
    f.(2) <-
      (((sr *. fl.(2)) -. (sl *. fr.(2)))
       +. (sl *. sr *. ((rho_r *. ut_r) -. (rho_l *. ut_l))))
      *. inv;
    f.(3) <-
      (((sr *. fl.(3)) -. (sl *. fr.(3))) +. (sl *. sr *. (e_r -. e_l)))
      *. inv
  end

let hllc_pr ~gamma pr s f =
  let sl = hll_speed_pr ~gamma pr 0 and sr = hll_speed_pr ~gamma pr 1 in
  if sl >= 0. then phys_pr ~gamma pr 0 f
  else if sr <= 0. then phys_pr ~gamma pr 4 f
  else begin
    let rho_l = pr.(0) and un_l = pr.(1) and p_l = pr.(3)
    and rho_r = pr.(4) and un_r = pr.(5) and p_r = pr.(7) in
    (* Toro's contact-wave speed. *)
    let s_star =
      ((p_r -. p_l)
       +. (rho_l *. un_l *. (sl -. un_l))
       -. (rho_r *. un_r *. (sr -. un_r)))
      /. ((rho_l *. (sl -. un_l)) -. (rho_r *. (sr -. un_r)))
    in
    let o = if s_star >= 0. then 0 else 4 in
    let sp = if s_star >= 0. then sl else sr in
    let rho = pr.(o) and un = pr.(o + 1) and ut = pr.(o + 2)
    and p = pr.(o + 3) in
    let e =
      (p /. (gamma -. 1.)) +. (0.5 *. rho *. ((un *. un) +. (ut *. ut)))
    in
    let coef = rho *. (sp -. un) /. (sp -. s_star) in
    let u_star = s.v0 and u = s.v1 and fk = s.v2 in
    u_star.(0) <- coef;
    u_star.(1) <- coef *. s_star;
    u_star.(2) <- coef *. ut;
    u_star.(3) <-
      coef
      *. ((e /. rho)
          +. ((s_star -. un) *. (s_star +. (p /. (rho *. (sp -. un))))));
    u.(0) <- rho;
    u.(1) <- rho *. un;
    u.(2) <- rho *. ut;
    u.(3) <- e;
    phys_pr ~gamma pr o fk;
    for k = 0 to 3 do
      f.(k) <- fk.(k) +. (sp *. (u_star.(k) -. u.(k)))
    done
  end

let roe_pr ~gamma pr s f =
  Characteristic.roe_into ~gamma ~pr ~l:s.cl ~r:s.cr ~ev:s.ev;
  let rho_l = pr.(0) and un_l = pr.(1) and ut_l = pr.(2) and p_l = pr.(3)
  and rho_r = pr.(4) and un_r = pr.(5) and ut_r = pr.(6) and p_r = pr.(7) in
  let e_l =
    (p_l /. (gamma -. 1.))
    +. (0.5 *. rho_l *. ((un_l *. un_l) +. (ut_l *. ut_l)))
  and e_r =
    (p_r /. (gamma -. 1.))
    +. (0.5 *. rho_r *. ((un_r *. un_r) +. (ut_r *. ut_r)))
  in
  let du = s.v0 in
  du.(0) <- rho_r -. rho_l;
  du.(1) <- (rho_r *. un_r) -. (rho_l *. un_l);
  du.(2) <- (rho_r *. ut_r) -. (rho_l *. ut_l);
  du.(3) <- e_r -. e_l;
  let alpha = s.v1 in
  Characteristic.project_into s.cl du alpha;
  let l1 = s.ev.(0) and l2 = s.ev.(1) and l3 = s.ev.(2)
  and l4 = s.ev.(3) in
  let c_roe = (l4 -. l1) /. 2. in
  let eps = 0.1 *. c_roe in
  let w = s.v2 in
  w.(0) <- entropy_fixed_abs l1 eps *. alpha.(0);
  w.(1) <- Float.abs l2 *. alpha.(1);
  w.(2) <- Float.abs l3 *. alpha.(2);
  w.(3) <- entropy_fixed_abs l4 eps *. alpha.(3);
  let diss = s.v3 in
  Characteristic.project_into s.cr w diss;
  let fl = s.v4 and fr = s.v5 in
  phys_pr ~gamma pr 0 fl;
  phys_pr ~gamma pr 4 fr;
  for k = 0 to 3 do
    f.(k) <- (0.5 *. (fl.(k) +. fr.(k))) -. (0.5 *. diss.(k))
  done

let exact_pr ~gamma pr f =
  exact_flux ~gamma ~rho_l:pr.(0) ~un_l:pr.(1) ~ut_l:pr.(2) ~p_l:pr.(3)
    ~rho_r:pr.(4) ~un_r:pr.(5) ~ut_r:pr.(6) ~p_r:pr.(7) ~f

let flux_pr_into kind ~gamma ~pr ~s ~f =
  if not (pr.(0) > 0. && pr.(3) > 0.) || not (pr.(4) > 0. && pr.(7) > 0.)
  then invalid_arg "Riemann: non-physical input state";
  match kind with
  | Rusanov -> rusanov_pr ~gamma pr f
  | Hll -> hll_pr ~gamma pr s f
  | Hllc -> hllc_pr ~gamma pr s f
  | Roe -> roe_pr ~gamma pr s f
  | Exact -> exact_pr ~gamma pr f
