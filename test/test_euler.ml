(* Unit, integration and property tests for the Euler solver library. *)

let gamma = Euler.Gas.gamma_air
let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Gas                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gas_roundtrip () =
  let rho = 1.3 and u = 0.4 and v = -0.7 and p = 2.1 in
  let e = Euler.Gas.total_energy ~gamma ~rho ~u ~v ~p in
  let p' =
    Euler.Gas.pressure ~gamma ~rho ~mx:(rho *. u) ~my:(rho *. v) ~e
  in
  check_float 1e-12 "pressure roundtrip" p p'

let test_gas_sound_speed () =
  (* Air at rho = 1, p = 1: c = sqrt(1.4). *)
  check_float 1e-12 "c" (Float.sqrt 1.4)
    (Euler.Gas.sound_speed ~gamma ~rho:1. ~p:1.)

let test_gas_enthalpy () =
  let rho = 2. and u = 0.5 and p = 3. in
  let e = Euler.Gas.total_energy ~gamma ~rho ~u ~v:0. ~p in
  let h = Euler.Gas.enthalpy ~gamma ~rho ~mx:(rho *. u) ~my:0. ~e in
  (* H = c^2/(gamma-1) + q^2/2 for a perfect gas. *)
  let c = Euler.Gas.sound_speed ~gamma ~rho ~p in
  check_float 1e-12 "enthalpy identity"
    ((c *. c /. (gamma -. 1.)) +. (u *. u /. 2.))
    h

let test_gas_physical () =
  check_bool "ok" true (Euler.Gas.is_physical ~rho:1. ~p:0.1);
  check_bool "bad rho" false (Euler.Gas.is_physical ~rho:(-1.) ~p:0.1);
  check_bool "bad p" false (Euler.Gas.is_physical ~rho:1. ~p:0.)

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_grid_geometry () =
  let g = Euler.Grid.make ~nx:10 ~ny:5 ~lx:2. ~ly:1. () in
  check_float 1e-12 "dx" 0.2 g.Euler.Grid.dx;
  check_float 1e-12 "dy" 0.2 g.Euler.Grid.dy;
  check_float 1e-12 "xc 0" 0.1 (Euler.Grid.xc g 0);
  check_float 1e-12 "yc 4" 0.9 (Euler.Grid.yc g 4);
  check_int "cells" ((10 + 6) * (5 + 6)) g.Euler.Grid.cells;
  check_int "interior" 50 (Euler.Grid.interior_cells g);
  check_bool "not 1d" false (Euler.Grid.is_1d g)

let test_grid_offset_unique () =
  let g = Euler.Grid.make ~nx:4 ~ny:3 ~ng:2 ~lx:1. ~ly:1. () in
  let seen = Hashtbl.create 64 in
  for iy = -2 to 4 do
    for ix = -2 to 5 do
      let o = Euler.Grid.offset g ix iy in
      check_bool "offset in range" true (o >= 0 && o < g.Euler.Grid.cells);
      check_bool "offset unique" false (Hashtbl.mem seen o);
      Hashtbl.add seen o ()
    done
  done

let test_grid_1d () =
  let g = Euler.Grid.make_1d ~nx:100 ~lx:1. () in
  check_bool "is 1d" true (Euler.Grid.is_1d g);
  check_float 1e-12 "dx" 0.01 g.Euler.Grid.dx

let test_grid_invalid () =
  check_bool "zero cells rejected" true
    (try
       ignore (Euler.Grid.make ~nx:0 ~ny:1 ~lx:1. ~ly:1. ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let test_state_primitive_roundtrip () =
  let g = Euler.Grid.make ~nx:4 ~ny:4 ~lx:1. ~ly:1. () in
  let st = Euler.State.create g in
  Euler.State.set_primitive st 2 1 ~rho:0.7 ~u:1.1 ~v:(-0.3) ~p:2.2;
  let rho, u, v, p = Euler.State.primitive st 2 1 in
  check_float 1e-12 "rho" 0.7 rho;
  check_float 1e-12 "u" 1.1 u;
  check_float 1e-12 "v" (-0.3) v;
  check_float 1e-12 "p" 2.2 p

let test_state_totals () =
  let prob = Euler.Setup.uniform ~rho:2. ~u:0. ~v:0. ~p:1. ~nx:8 ~ny:8 () in
  let st = prob.Euler.Setup.state in
  (* Unit domain, rho = 2 everywhere: total mass = 2. *)
  check_float 1e-12 "mass" 2. (Euler.State.total_mass st);
  check_float 1e-12 "x momentum" 0. (Euler.State.total_momentum_x st);
  check_float 1e-9 "energy" (1. /. 0.4) (Euler.State.total_energy st)

let test_state_fields () =
  let prob = Euler.Setup.sod ~nx:10 () in
  let st = prob.Euler.Setup.state in
  let rho = Euler.State.density_field st in
  Alcotest.(check (array int)) "field shape" [| 1; 10 |]
    (Tensor.Nd.shape rho);
  check_float 1e-12 "left density" 1. (Tensor.Nd.get rho [| 0; 0 |]);
  check_float 1e-12 "right density" 0.125 (Tensor.Nd.get rho [| 0; 9 |]);
  let profile = Euler.State.density_profile st in
  check_float 1e-12 "profile matches field" (Tensor.Nd.get rho [| 0; 3 |])
    profile.(3)

let test_state_copy_blit_diff () =
  let prob = Euler.Setup.sod ~nx:16 () in
  let a = prob.Euler.Setup.state in
  let b = Euler.State.copy a in
  check_float 1e-15 "copy equal" 0. (Euler.State.max_abs_diff a b);
  Euler.State.set_primitive b 3 0 ~rho:9. ~u:0. ~v:0. ~p:9.;
  check_bool "diff detects change" true
    (Euler.State.max_abs_diff a b > 1.);
  Euler.State.blit ~src:a ~dst:b;
  check_float 1e-15 "blit restores" 0. (Euler.State.max_abs_diff a b)

(* ------------------------------------------------------------------ *)
(* Limiters                                                            *)
(* ------------------------------------------------------------------ *)

let limiters = List.map snd Euler.Limiter.all

let test_limiter_zero_at_extrema () =
  List.iter
    (fun lim ->
      check_float 1e-15
        (Euler.Limiter.name lim ^ " opposite signs")
        0.
        (Euler.Limiter.apply lim 1.0 (-0.5)))
    limiters

let test_limiter_linear_preserved () =
  (* Equal slopes pass through unchanged. *)
  List.iter
    (fun lim ->
      check_float 1e-12
        (Euler.Limiter.name lim ^ " equal slopes")
        0.7
        (Euler.Limiter.apply lim 0.7 0.7))
    limiters

let test_limiter_specific_values () =
  check_float 1e-12 "minmod picks smaller" 0.5 (Euler.Limiter.minmod 0.5 1.5);
  check_float 1e-12 "superbee compresses" 1.0
    (Euler.Limiter.superbee 0.5 1.5);
  check_float 1e-12 "van leer harmonic" (2. *. 0.5 *. 1.5 /. 2.)
    (Euler.Limiter.van_leer 0.5 1.5);
  check_float 1e-12 "mc median" 1.0
    (Euler.Limiter.monotonized_central 0.5 1.5);
  check_float 1e-12 "minmod3 positive" 0.5 (Euler.Limiter.minmod3 2. 0.5 1.);
  check_float 1e-12 "minmod3 mixed" 0. (Euler.Limiter.minmod3 2. (-0.5) 1.)

let test_limiter_names () =
  List.iter
    (fun (name, lim) ->
      Alcotest.(check (option bool))
        ("roundtrip " ^ name) (Some true)
        (Option.map (fun l -> l = lim) (Euler.Limiter.of_string name)))
    Euler.Limiter.all;
  Alcotest.(check bool) "unknown" true (Euler.Limiter.of_string "nope" = None)

(* ------------------------------------------------------------------ *)
(* Characteristic decomposition                                        *)
(* ------------------------------------------------------------------ *)

let mat_mul_ident l r =
  (* || L * R - I ||_inf for row-major 4x4 matrices. *)
  let m = ref 0. in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let s = ref 0. in
      for k = 0 to 3 do
        s := !s +. (l.((i * 4) + k) *. r.((k * 4) + j))
      done;
      let expected = if i = j then 1. else 0. in
      m := Float.max !m (Float.abs (!s -. expected))
    done
  done;
  !m

let test_characteristic_inverse () =
  let b =
    Euler.Characteristic.of_state ~gamma ~rho:1.2 ~un:0.4 ~ut:(-0.2) ~p:0.9
  in
  check_bool "L R = I" true
    (mat_mul_ident
       (Euler.Characteristic.left_matrix b)
       (Euler.Characteristic.right_matrix b)
     < 1e-12)

let test_characteristic_roundtrip () =
  let b =
    Euler.Characteristic.of_state ~gamma ~rho:0.8 ~un:(-1.5) ~ut:0.6 ~p:2.
  in
  let q = [| 0.8; -1.2; 0.48; 5. |] in
  let w = Array.make 4 0. and q' = Array.make 4 0. in
  Euler.Characteristic.to_characteristic b q w;
  Euler.Characteristic.from_characteristic b w q';
  Array.iteri
    (fun i x -> check_float 1e-10 (Printf.sprintf "q[%d]" i) x q'.(i))
    q

let test_characteristic_eigenvalues () =
  let rho = 1. and un = 0.3 and p = 1. in
  let b = Euler.Characteristic.of_state ~gamma ~rho ~un ~ut:0. ~p in
  let c = Euler.Gas.sound_speed ~gamma ~rho ~p in
  let l1, l2, l3, l4 = Euler.Characteristic.eigenvalues b in
  check_float 1e-12 "u-c" (un -. c) l1;
  check_float 1e-12 "u" un l2;
  check_float 1e-12 "u shear" un l3;
  check_float 1e-12 "u+c" (un +. c) l4

let test_characteristic_roe_symmetric () =
  (* Roe average of two identical states is that state. *)
  let s = (1.4, 0.2, -0.1, 2.) in
  let b = Euler.Characteristic.of_roe_average ~gamma ~left:s ~right:s in
  let b' =
    let rho, un, ut, p = s in
    Euler.Characteristic.of_state ~gamma ~rho ~un ~ut ~p
  in
  let l1, _, _, l4 = Euler.Characteristic.eigenvalues b
  and l1', _, _, l4' = Euler.Characteristic.eigenvalues b' in
  check_float 1e-12 "u-c matches" l1' l1;
  check_float 1e-12 "u+c matches" l4' l4

let test_characteristic_rejects_bad () =
  check_bool "negative pressure rejected" true
    (try
       ignore
         (Euler.Characteristic.of_state ~gamma ~rho:1. ~un:0. ~ut:0.
            ~p:(-1.));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Riemann solvers                                                     *)
(* ------------------------------------------------------------------ *)

let solvers =
  [ Euler.Riemann.Rusanov; Euler.Riemann.Hll; Euler.Riemann.Hllc;
    Euler.Riemann.Roe ]

let physical_flux state =
  let rho, un, ut, p = state in
  let f = Array.make 4 0. in
  Euler.Riemann.physical_flux_into ~gamma ~rho ~un ~ut ~p ~f;
  f

let test_riemann_consistency () =
  (* F(q, q) must equal the physical flux F(q). *)
  let state = (1.3, 0.7, -0.4, 2.1) in
  let expected = physical_flux state in
  List.iter
    (fun kind ->
      let f = Euler.Riemann.flux kind ~gamma ~left:state ~right:state in
      Array.iteri
        (fun k x ->
          check_float 1e-10
            (Printf.sprintf "%s consistency [%d]" (Euler.Riemann.name kind) k)
            expected.(k) x)
        f)
    solvers

let test_riemann_supersonic_upwind () =
  (* Supersonic flow to the right: every solver must return the left
     state's physical flux. *)
  let left = (1., 3., 0., 1.) and right = (0.5, 2.8, 0., 0.4) in
  let expected = physical_flux left in
  List.iter
    (fun kind ->
      let f = Euler.Riemann.flux kind ~gamma ~left ~right in
      Array.iteri
        (fun k x ->
          check_float 5e-2
            (Printf.sprintf "%s upwind [%d]" (Euler.Riemann.name kind) k)
            expected.(k) x)
        f)
    [ Euler.Riemann.Hll; Euler.Riemann.Hllc ]

let test_riemann_sod_star_values () =
  (* HLLC resolves the stationary contact exactly: for a pure contact
     discontinuity (equal u and p), the mass flux is rho_upwind * u. *)
  let left = (1., 0.1, 0., 1.) and right = (0.5, 0.1, 0., 1.) in
  let f = Euler.Riemann.flux Euler.Riemann.Hllc ~gamma ~left ~right in
  check_float 1e-10 "contact mass flux" 0.1 f.(0);
  check_float 1e-10 "contact momentum flux" (1. *. 0.1 *. 0.1 +. 1.) f.(1)

let test_riemann_rejects_bad () =
  check_bool "bad state rejected" true
    (try
       ignore
         (Euler.Riemann.flux Euler.Riemann.Hll ~gamma ~left:(0., 0., 0., 1.)
            ~right:(1., 0., 0., 1.));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Reconstruction                                                      *)
(* ------------------------------------------------------------------ *)

let all_schemes =
  List.filter_map Euler.Recon.of_string Euler.Recon.all_names

let window_of k f =
  Array.init (Euler.Recon.stencil_width k) (fun i -> f (float_of_int i))

let test_recon_constant () =
  (* Constant data reconstructs to the constant. *)
  List.iter
    (fun k ->
      let wl, wr = Euler.Recon.left_right_window k (window_of k (fun _ -> 3.)) in
      check_float 1e-12 (Euler.Recon.name k ^ " wl") 3. wl;
      check_float 1e-12 (Euler.Recon.name k ^ " wr") 3. wr)
    all_schemes

let test_recon_linear_exact () =
  (* Linear data: every scheme of order >= 2 must hit the interface
     value exactly (the midpoint of the two central cells). *)
  List.iter
    (fun k ->
      if Euler.Recon.order k >= 2 then begin
        let wl, wr =
          Euler.Recon.left_right_window k (window_of k (fun x -> x))
        in
        let expected =
          float_of_int (Euler.Recon.stencil_width k / 2) -. 0.5
        in
        check_float 1e-5 (Euler.Recon.name k ^ " wl linear") expected wl;
        check_float 1e-5 (Euler.Recon.name k ^ " wr linear") expected wr
      end)
    all_schemes

let test_recon_pc () =
  let wl, wr =
    Euler.Recon.left_right Euler.Recon.Piecewise_constant 0. 1. 2. 3.
  in
  check_float 1e-15 "pc left" 1. wl;
  check_float 1e-15 "pc right" 2. wr

let test_recon_monotone_at_jump () =
  (* Across a discontinuity the reconstructed states stay within the
     data range (no over/undershoot); WENO schemes only guarantee it
     essentially, so they are excluded here (their discontinuity
     behaviour is checked through the weight tests instead). *)
  List.iter
    (fun k ->
      let half = Euler.Recon.stencil_width k / 2 in
      let w =
        window_of k (fun x -> if x < float_of_int half then 0. else 1.)
      in
      let wl, wr = Euler.Recon.left_right_window k w in
      check_bool (Euler.Recon.name k ^ " wl bounded") true
        (wl >= -1e-9 && wl <= 1. +. 1e-9);
      check_bool (Euler.Recon.name k ^ " wr bounded") true
        (wr >= -1e-9 && wr <= 1. +. 1e-9))
    (List.filter
       (fun k ->
         match k with
         | Euler.Recon.Weno3 | Euler.Recon.Weno5 -> false
         | _ -> true)
       all_schemes)

let test_recon_weno_weights () =
  (* Smooth data: weights near the ideal (2/3, 1/3); at a jump the
     stencil crossing it gets nearly zero weight. *)
  let o0, o1 = Euler.Recon.weno3_weights 1.0 1.01 1.02 in
  check_float 0.02 "smooth w0" (2. /. 3.) o0;
  check_float 0.02 "smooth w1" (1. /. 3.) o1;
  let o0, o1 = Euler.Recon.weno3_weights 1.0 1.0 100.0 in
  (* Central stencil {w1, w2} crosses the jump: it must be ignored. *)
  check_bool "jump ignored" true (o0 < 1e-4);
  check_bool "upwind favoured" true (o1 > 0.999)

let test_recon_weno5 () =
  (* Smooth data: weights near the ideal (0.1, 0.6, 0.3). *)
  let o0, o1, o2 =
    Euler.Recon.weno5_weights [| 1.0; 1.01; 1.02; 1.03; 1.04 |]
  in
  check_float 0.01 "smooth w0" 0.1 o0;
  check_float 0.01 "smooth w1" 0.6 o1;
  check_float 0.01 "smooth w2" 0.3 o2;
  (* A jump in the rightmost stencil zeroes its weight. *)
  let _, _, o2 = Euler.Recon.weno5_weights [| 1.; 1.; 1.; 1.; 100. |] in
  check_bool "jump stencil rejected" true (o2 < 1e-4);
  (* Parabolic data x^2: the scheme is exact for polynomials up to
     degree 4 when the nonlinear weights are near-ideal; interface at
     x = 2.5 between cells 2 and 3, cell averages i^2 + 1/12. *)
  let cell_avg i = (float_of_int i ** 2.) +. (1. /. 12.) in
  let w = Array.init 6 cell_avg in
  let wl, wr = Euler.Recon.left_right_window Euler.Recon.Weno5 w in
  check_float 1e-3 "parabola point value left" 6.25 wl;
  check_float 1e-3 "parabola point value right" 6.25 wr;
  (* left_right (4-point) must refuse. *)
  check_bool "4-point entry refused" true
    (try
       ignore (Euler.Recon.left_right Euler.Recon.Weno5 0. 0. 0. 0.);
       false
     with Invalid_argument _ -> true)

let test_recon_parsing () =
  List.iter
    (fun name ->
      match Euler.Recon.of_string name with
      | Some k ->
        Alcotest.(check string) ("roundtrip " ^ name) name
          (Euler.Recon.name k)
      | None -> Alcotest.failf "could not parse %s" name)
    Euler.Recon.all_names;
  check_bool "bare tvd2" true
    (Euler.Recon.of_string "tvd2" = Some (Euler.Recon.Tvd2 Euler.Limiter.Minmod));
  check_bool "junk" true (Euler.Recon.of_string "tvd9:minmod" = None)

let test_recon_ghosts () =
  check_int "pc ghosts" 1 (Euler.Recon.ghost_needed Euler.Recon.Piecewise_constant);
  check_int "weno3 ghosts" 2 (Euler.Recon.ghost_needed Euler.Recon.Weno3);
  check_int "weno5 ghosts" 3 (Euler.Recon.ghost_needed Euler.Recon.Weno5);
  check_int "weno5 width" 6 (Euler.Recon.stencil_width Euler.Recon.Weno5)

(* ------------------------------------------------------------------ *)
(* Rankine-Hugoniot                                                    *)
(* ------------------------------------------------------------------ *)

let test_rh_weak_shock_limit () =
  (* Ms -> 1: the post-shock state tends to the quiescent state. *)
  let s = Euler.Rankine_hugoniot.post_shock ~gamma ~ms:1.0001 ~rho0:1. ~p0:1. in
  check_float 1e-3 "rho -> rho0" 1. s.Euler.Rankine_hugoniot.rho;
  check_float 1e-3 "u -> 0" 0. s.Euler.Rankine_hugoniot.u;
  check_float 1e-3 "p -> p0" 1. s.Euler.Rankine_hugoniot.p

let test_rh_ms22 () =
  (* Standard normal-shock table values for Ms = 2.2, gamma = 1.4:
     p2/p1 = 5.48, rho2/rho1 = 2.9512. *)
  let s = Euler.Rankine_hugoniot.post_shock ~gamma ~ms:2.2 ~rho0:1. ~p0:1. in
  check_float 1e-3 "pressure ratio" 5.48 s.Euler.Rankine_hugoniot.p;
  check_float 1e-3 "density ratio" 2.9512 s.Euler.Rankine_hugoniot.rho

let test_rh_conservation () =
  (* The jump must satisfy the conservation laws across the shock in
     the shock frame. *)
  let ms = 2.2 and rho0 = 1. and p0 = 1. in
  let s = Euler.Rankine_hugoniot.post_shock ~gamma ~ms ~rho0 ~p0 in
  let ws = s.Euler.Rankine_hugoniot.shock_speed in
  (* Mass: rho0 * ws = rho2 * (ws - u2). *)
  check_float 1e-10 "mass jump" (rho0 *. ws)
    (s.Euler.Rankine_hugoniot.rho *. (ws -. s.Euler.Rankine_hugoniot.u));
  (* Momentum: p0 + rho0 ws^2 = p2 + rho2 (ws - u2)^2. *)
  check_float 1e-9 "momentum jump"
    (p0 +. (rho0 *. ws *. ws))
    (s.Euler.Rankine_hugoniot.p
     +. (s.Euler.Rankine_hugoniot.rho
         *. (ws -. s.Euler.Rankine_hugoniot.u)
         *. (ws -. s.Euler.Rankine_hugoniot.u)))

let test_rh_supersonic_exit () =
  (* The paper relies on the exit flow being supersonic at Ms = 2.2. *)
  check_bool "M2 > 1 at Ms=2.2" true
    (Euler.Rankine_hugoniot.mach_behind ~gamma ~ms:2.2 > 1.);
  check_bool "M2 < 1 at Ms=1.5" true
    (Euler.Rankine_hugoniot.mach_behind ~gamma ~ms:1.5 < 1.)

(* ------------------------------------------------------------------ *)
(* Exact Riemann solver                                                *)
(* ------------------------------------------------------------------ *)

let sod_left = (1., 0., 1.)
let sod_right = (0.125, 0., 0.1)

let test_exact_sod_star () =
  (* Published star values for the Sod problem (Toro, table 4.2):
     p* = 0.30313, u* = 0.92745. *)
  let s =
    Euler.Exact_riemann.solve ~gamma ~left:sod_left ~right:sod_right ()
  in
  check_float 1e-4 "p*" 0.30313 s.Euler.Exact_riemann.p_star;
  check_float 1e-4 "u*" 0.92745 s.Euler.Exact_riemann.u_star

let test_exact_sod_sampled_states () =
  (* Density left of the contact: 0.42632; right: 0.26557 (Toro). *)
  let sample xi =
    Euler.Exact_riemann.sample ~gamma ~left:sod_left ~right:sod_right ~xi
  in
  let rho_l, _, _ = sample 0.8 in
  check_float 1e-4 "rho left of contact" 0.42632 rho_l;
  let rho_r, _, _ = sample 1.2 in
  check_float 1e-4 "rho right of contact" 0.26557 rho_r;
  (* Far fields untouched. *)
  let rho, u, p = sample (-5.) in
  check_float 1e-12 "left state" 1. rho;
  check_float 1e-12 "left u" 0. u;
  check_float 1e-12 "left p" 1. p;
  let rho, _, _ = sample 5. in
  check_float 1e-12 "right state" 0.125 rho

let test_exact_symmetric_problem () =
  (* Symmetric colliding flows: u* = 0 by symmetry. *)
  let s =
    Euler.Exact_riemann.solve ~gamma ~left:(1., 1., 1.)
      ~right:(1., -1., 1.) ()
  in
  check_float 1e-10 "u* symmetric" 0. s.Euler.Exact_riemann.u_star;
  check_bool "compression raises p*" true (s.Euler.Exact_riemann.p_star > 1.)

let test_exact_vacuum_detected () =
  check_bool "vacuum raises" true
    (try
       ignore
         (Euler.Exact_riemann.solve ~gamma ~left:(1., -10., 1.)
            ~right:(1., 10., 1.) ());
       false
     with Failure _ -> true)

let test_exact_rarefaction_continuous () =
  (* The solution through a rarefaction fan is continuous: sample on a
     fine grid of xi and check increments are small. *)
  let prev = ref None in
  let max_jump = ref 0. in
  for i = 0 to 400 do
    let xi = -2. +. (float_of_int i /. 100.) in
    let rho, _, _ =
      Euler.Exact_riemann.sample ~gamma ~left:sod_left ~right:sod_right ~xi
    in
    (match !prev with
     | Some r ->
       (* Exclude the genuine discontinuities (contact, shock). *)
       if xi < 0.8 then max_jump := Float.max !max_jump (Float.abs (rho -. r))
     | None -> ());
    prev := Some rho
  done;
  check_bool "no spurious jumps in the fan" true (!max_jump < 0.01)

(* ------------------------------------------------------------------ *)
(* Boundary conditions                                                 *)
(* ------------------------------------------------------------------ *)

let test_bc_outflow () =
  let prob = Euler.Setup.sod ~nx:8 () in
  let st = prob.Euler.Setup.state in
  Euler.Bc.apply ~t:0. st prob.Euler.Setup.bcs;
  (* Ghost cells copy the nearest interior cell. *)
  let rho_g, u_g, _, p_g = Euler.State.primitive st (-1) 0 in
  let rho_i, u_i, _, p_i = Euler.State.primitive st 0 0 in
  check_float 1e-12 "ghost rho" rho_i rho_g;
  check_float 1e-12 "ghost u" u_i u_g;
  check_float 1e-12 "ghost p" p_i p_g

let test_bc_reflective () =
  let g = Euler.Grid.make ~nx:4 ~ny:4 ~lx:1. ~ly:1. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x ~y:_ -> (1., 0.5 +. x, 0.2, 1.));
  Euler.Bc.apply_side ~t:0. st Euler.Bc.West Euler.Bc.Reflective;
  let _, u_g, v_g, _ = Euler.State.primitive st (-1) 1
  and _, u_m, v_m, _ = Euler.State.primitive st 0 1 in
  check_float 1e-12 "normal velocity negated" (-.u_m) u_g;
  check_float 1e-12 "transverse velocity kept" v_m v_g;
  (* North wall negates v instead. *)
  Euler.Bc.apply_side ~t:0. st Euler.Bc.North Euler.Bc.Reflective;
  let _, u_g, v_g, _ = Euler.State.primitive st 1 4
  and _, u_m, v_m, _ = Euler.State.primitive st 1 3 in
  check_float 1e-12 "v negated" (-.v_m) v_g;
  check_float 1e-12 "u kept" u_m u_g

let test_bc_inflow () =
  let g = Euler.Grid.make ~nx:4 ~ny:4 ~lx:1. ~ly:1. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x:_ ~y:_ -> (1., 0., 0., 1.));
  Euler.Bc.apply_side ~t:0. st Euler.Bc.West
    (Euler.Bc.Inflow { rho = 2.9; u = 1.7; v = 0.; p = 5.4 });
  let rho, u, v, p = Euler.State.primitive st (-2) 2 in
  check_float 1e-12 "inflow rho" 2.9 rho;
  check_float 1e-12 "inflow u" 1.7 u;
  check_float 1e-12 "inflow v" 0. v;
  check_float 1e-12 "inflow p" 5.4 p

let test_bc_segmented () =
  let g = Euler.Grid.make ~nx:4 ~ny:4 ~lx:2. ~ly:2. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x:_ ~y:_ -> (1., 0.3, 0.1, 1.));
  (* Inflow below y = 1, default (reflective wall) above. *)
  Euler.Bc.apply_side ~t:0. st Euler.Bc.West
    (Euler.Bc.Segmented
       [ (0., 1., Euler.Bc.Inflow { rho = 2.; u = 1.; v = 0.; p = 3. }) ]);
  let rho, _, _, _ = Euler.State.primitive st (-1) 0 in
  check_float 1e-12 "inflow segment" 2. rho;
  let _, u_g, _, _ = Euler.State.primitive st (-1) 3
  and _, u_m, _, _ = Euler.State.primitive st 0 3 in
  check_float 1e-12 "wall segment mirrors" (-.u_m) u_g

let test_bc_nested_segmented_rejected () =
  let g = Euler.Grid.make ~nx:2 ~ny:2 ~lx:1. ~ly:1. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x:_ ~y:_ -> (1., 0., 0., 1.));
  check_bool "nested rejected" true
    (try
       Euler.Bc.apply_side ~t:0. st Euler.Bc.West
         (Euler.Bc.Segmented [ (0., 1., Euler.Bc.Segmented []) ]);
       false
     with Invalid_argument _ -> true)

let test_bc_time_dependent () =
  let g = Euler.Grid.make ~nx:4 ~ny:4 ~lx:2. ~ly:2. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x:_ ~y:_ -> (1., 0.5, 0., 1.));
  (* A clocked boundary: inflow before t = 1, outflow after. *)
  let kind =
    Euler.Bc.Time_dependent
      (fun t ->
        if t < 1. then Euler.Bc.Inflow { rho = 2.; u = 1.; v = 0.; p = 3. }
        else Euler.Bc.Outflow)
  in
  Euler.Bc.apply_side ~t:0. st Euler.Bc.West kind;
  let rho, _, _, _ = Euler.State.primitive st (-1) 0 in
  check_float 1e-12 "early: inflow" 2. rho;
  Euler.Bc.apply_side ~t:2. st Euler.Bc.West kind;
  let rho, _, _, _ = Euler.State.primitive st (-1) 0 in
  check_float 1e-12 "late: outflow copies interior" 1. rho;
  (* The closure may return Segmented (the DMR top boundary): resolve
     collapses both layers at a given coordinate, and the uncovered
     region falls back to the Reflective default. *)
  let moving =
    Euler.Bc.Time_dependent
      (fun t ->
        Euler.Bc.Segmented
          [ (-1e9, t, Euler.Bc.Inflow { rho = 2.; u = 1.; v = 0.; p = 3. }) ])
  in
  (match Euler.Bc.resolve ~t:0.6 ~coord:0.5 moving with
  | Euler.Bc.Inflow { rho; _ } -> check_float 1e-12 "resolved inflow" 2. rho
  | _ -> Alcotest.fail "expected Inflow behind the moving front");
  (match Euler.Bc.resolve ~t:0.6 ~coord:0.7 moving with
  | Euler.Bc.Reflective -> ()
  | _ -> Alcotest.fail "expected Reflective default ahead of the front");
  (* A closure that never grounds out in a flat kind is rejected, not
     spun on forever. *)
  let rec divergent _t = Euler.Bc.Time_dependent divergent in
  check_bool "divergent closure rejected" true
    (try
       ignore
         (Euler.Bc.resolve ~t:0. ~coord:0. (Euler.Bc.Time_dependent divergent));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Time step                                                           *)
(* ------------------------------------------------------------------ *)

let test_dt_uniform () =
  let prob = Euler.Setup.uniform ~rho:1. ~u:0.5 ~v:(-0.5) ~p:1. ~nx:10 ~ny:10 () in
  let exec = Parallel.Exec.sequential () in
  let c = Euler.Gas.sound_speed ~gamma ~rho:1. ~p:1. in
  let expected_ev = ((0.5 +. c) /. 0.1) +. ((0.5 +. c) /. 0.1) in
  check_float 1e-9 "EV uniform" expected_ev
    (Euler.Time_step.max_eigenvalue exec prob.Euler.Setup.state);
  check_float 1e-9 "dt" (0.5 /. expected_ev)
    (Euler.Time_step.dt ~cfl:0.5 exec prob.Euler.Setup.state)

let test_dt_1d_ignores_y () =
  let prob = Euler.Setup.sod ~nx:10 () in
  let exec = Parallel.Exec.sequential () in
  let ev = Euler.Time_step.max_eigenvalue exec prob.Euler.Setup.state in
  (* Left state dominates: (|0| + sqrt(1.4)) / 0.1. *)
  check_float 1e-9 "1d EV" (Float.sqrt 1.4 /. 0.1) ev

let test_dt_invalid_cfl () =
  let prob = Euler.Setup.sod ~nx:4 () in
  let exec = Parallel.Exec.sequential () in
  check_bool "cfl <= 0 rejected" true
    (try
       ignore (Euler.Time_step.dt ~cfl:0. exec prob.Euler.Setup.state);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Solver behaviour                                                    *)
(* ------------------------------------------------------------------ *)

let make_sod_solver ?(config = Euler.Solver.default_config) nx =
  let prob = Euler.Setup.sod ~nx () in
  Euler.Solver.create ~config ~bcs:prob.Euler.Setup.bcs
    prob.Euler.Setup.state

let test_solver_uniform_stationary () =
  (* A constant state must stay constant through any scheme. *)
  List.iter
    (fun recon ->
      let prob = Euler.Setup.uniform ~nx:8 ~ny:8 () in
      let before = Euler.State.copy prob.Euler.Setup.state in
      let config = { Euler.Solver.default_config with Euler.Solver.recon } in
      let s =
        Euler.Solver.create ~config ~bcs:prob.Euler.Setup.bcs
          prob.Euler.Setup.state
      in
      Euler.Solver.run_steps s 5;
      check_bool
        (Euler.Recon.name recon ^ " stationary")
        true
        (Euler.State.max_abs_diff before s.Euler.Solver.state < 1e-13))
    all_schemes

let test_solver_conservation () =
  (* Outflow boundaries see no flow before waves arrive: mass and
     energy are conserved exactly while everything stays interior. *)
  let s = make_sod_solver 100 in
  let m0 = Euler.State.total_mass s.Euler.Solver.state
  and e0 = Euler.State.total_energy s.Euler.Solver.state in
  Euler.Solver.run_until s 0.1;
  check_float 1e-12 "mass conserved" m0
    (Euler.State.total_mass s.Euler.Solver.state);
  check_float 1e-12 "energy conserved" e0
    (Euler.State.total_energy s.Euler.Solver.state)

let test_solver_sod_accuracy () =
  let s = make_sod_solver 200 in
  Euler.Solver.run_until s 0.2;
  let rho = Euler.State.density_profile s.Euler.Solver.state in
  let _, exact = Euler.Setup.sod_exact_profile ~nx:200 ~t:0.2 () in
  let l1 = ref 0. in
  Array.iteri
    (fun i r ->
      let re, _, _ = exact.(i) in
      l1 := !l1 +. Float.abs (r -. re))
    rho;
  check_bool "WENO3 L1 < 0.006" true (!l1 /. 200. < 0.006)

let test_solver_sod_all_configs_stable () =
  (* Every scheme x solver combination survives the Sod problem with
     positive density and pressure. *)
  List.iter
    (fun recon ->
      List.iter
        (fun riemann ->
          let config =
            { Euler.Solver.recon;
              riemann;
              rk = Euler.Rk.Tvd_rk3;
              cfl = 0.4;
              fused = true;
              tiles = (1, 1) }
          in
          let s = make_sod_solver ~config 60 in
          Euler.Solver.run_until s 0.15;
          let name =
            Euler.Recon.name recon ^ "+" ^ Euler.Riemann.name riemann
          in
          check_bool (name ^ " rho > 0") true
            (Euler.State.min_density s.Euler.Solver.state > 0.);
          check_bool (name ^ " p > 0") true
            (Euler.State.min_pressure s.Euler.Solver.state > 0.))
        solvers)
    all_schemes

let test_solver_123_positivity () =
  (* Double rarefaction: the near-vacuum centre breaks non-robust
     schemes; HLL-family with the positivity fallback must survive. *)
  let prob = Euler.Setup.test123 ~nx:100 () in
  let config =
    { Euler.Solver.recon = Euler.Recon.Weno3;
      riemann = Euler.Riemann.Hll;
      rk = Euler.Rk.Tvd_rk3;
      cfl = 0.4;
      fused = true;
      tiles = (1, 1) }
  in
  let s =
    Euler.Solver.create ~config ~bcs:prob.Euler.Setup.bcs
      prob.Euler.Setup.state
  in
  Euler.Solver.run_until s 0.15;
  check_bool "rho stays positive" true
    (Euler.State.min_density s.Euler.Solver.state > 0.);
  check_bool "p stays positive" true
    (Euler.State.min_pressure s.Euler.Solver.state > 0.)

let test_solver_convergence_order () =
  (* Smooth acoustic pulse: WENO3+RK3 must converge at better than
     first order in L1 (the pulse advects; limiting costs some order
     at the extrema, so demand > 1.5 between n=50 and n=100). *)
  let err nx =
    let prob = Euler.Setup.acoustic_pulse ~nx () in
    let config = Euler.Solver.default_config in
    let s =
      Euler.Solver.create ~config ~bcs:prob.Euler.Setup.bcs
        prob.Euler.Setup.state
    in
    let reference = Euler.State.copy prob.Euler.Setup.state in
    ignore reference;
    Euler.Solver.run_until s 0.05;
    (* Compare against a fine-grid solution interpolated: use the
       self-convergence trick of doubling instead -- here simply
       return the profile. *)
    s
  in
  let s1 = err 50 and s2 = err 100 in
  ignore (s1, s2);
  (* Self-convergence: coarsen the fine solution and compare. *)
  let rho1 = Euler.State.density_profile s1.Euler.Solver.state in
  let rho2 = Euler.State.density_profile s2.Euler.Solver.state in
  let coarse_of_fine =
    Array.init 50 (fun i -> 0.5 *. (rho2.((2 * i)) +. rho2.((2 * i) + 1)))
  in
  let diff = ref 0. in
  Array.iteri
    (fun i r -> diff := !diff +. Float.abs (r -. coarse_of_fine.(i)))
    rho1;
  (* The coarse-fine difference must be tiny for a smooth solution. *)
  check_bool "smooth self-convergence" true (!diff /. 50. < 2e-4)

let test_solver_rk_orders_agree () =
  (* All integrators approach the same solution; RK3 and RK2 should be
     closer to each other than RK1 is to RK3. *)
  let final rk =
    let prob = Euler.Setup.sod ~nx:100 () in
    let config =
      { Euler.Solver.default_config with Euler.Solver.rk; cfl = 0.3 }
    in
    let s =
      Euler.Solver.create ~config ~bcs:prob.Euler.Setup.bcs
        prob.Euler.Setup.state
    in
    Euler.Solver.run_until s 0.1;
    s.Euler.Solver.state
  in
  let q1 = final Euler.Rk.Euler1
  and q2 = final Euler.Rk.Tvd_rk2
  and q3 = final Euler.Rk.Tvd_rk3 in
  let d23 = Euler.State.max_abs_diff q2 q3
  and d13 = Euler.State.max_abs_diff q1 q3 in
  check_bool "rk2 closer to rk3 than rk1" true (d23 < d13);
  check_bool "all reasonably close" true (d13 < 0.05)

let test_solver_run_until_exact () =
  let s = make_sod_solver 50 in
  Euler.Solver.run_until s 0.123;
  check_float 1e-12 "time hit exactly" 0.123 s.Euler.Solver.time

let test_solver_regions_counted () =
  (* Fused path: one dispatch per RK stage, and the dt reduction is
     folded into the last stage's sweep, so only the very first step
     pays a standalone GetDT region: (1 + 3) + 3 + 3 = 10 regions over
     3 steps — under the tentpole's ceiling of 4 regions/step. *)
  let s = make_sod_solver 32 in
  Euler.Solver.run_steps s 3;
  check_float 1e-9 "fused regions/step" (10. /. 3.)
    (Euler.Solver.regions_per_step s);
  check_bool "fused regions/step <= 4" true
    (Euler.Solver.regions_per_step s <= 4.);
  (* Unfused (the per-loop Fortran shape): 1 dt reduction + 3 x (rhs
     sweep + rk combine) = 7 regions per step on a 1D grid. *)
  let config =
    { Euler.Solver.default_config with Euler.Solver.fused = false }
  in
  let s = make_sod_solver ~config 32 in
  Euler.Solver.run_steps s 3;
  check_float 1e-9 "unfused regions/step" 7.
    (Euler.Solver.regions_per_step s)

(* ------------------------------------------------------------------ *)
(* Two-channel problem                                                 *)
(* ------------------------------------------------------------------ *)

let test_two_channel_shocks_enter () =
  let prob = Euler.Setup.two_channel ~cells_per_h:10 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_steps s 20;
  let st = s.Euler.Solver.state in
  (* Gas near the west exit has been overrun by the shock... *)
  let rho_in, u_in, _, _ = Euler.State.primitive st 0 2 in
  check_bool "compressed at west exit" true (rho_in > 1.5);
  check_bool "moving right" true (u_in > 0.5);
  (* ...while the far corner is still quiescent. *)
  let rho_far, u_far, v_far, p_far = Euler.State.primitive st 18 18 in
  check_float 1e-9 "far rho" 1. rho_far;
  check_float 1e-9 "far u" 0. u_far;
  check_float 1e-9 "far v" 0. v_far;
  check_float 1e-9 "far p" 1. p_far

let test_two_channel_symmetry () =
  (* The configuration is symmetric under (x,y) swap; the solution
     must be too. *)
  let prob = Euler.Setup.two_channel ~cells_per_h:8 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_steps s 15;
  let st = s.Euler.Solver.state in
  let max_asym = ref 0. in
  for iy = 0 to 15 do
    for ix = 0 to 15 do
      let r1, u1, v1, p1 = Euler.State.primitive st ix iy in
      let r2, u2, v2, p2 = Euler.State.primitive st iy ix in
      max_asym := Float.max !max_asym (Float.abs (r1 -. r2));
      max_asym := Float.max !max_asym (Float.abs (u1 -. v2));
      max_asym := Float.max !max_asym (Float.abs (v1 -. u2));
      max_asym := Float.max !max_asym (Float.abs (p1 -. p2))
    done
  done;
  check_bool "mirror symmetric" true (!max_asym < 1e-11)

(* ------------------------------------------------------------------ *)
(* Array_style and Fortran equivalence                                 *)
(* ------------------------------------------------------------------ *)

let test_array_style_matches_1d () =
  let p1 = Euler.Setup.sod ~nx:64 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:p1.Euler.Setup.bcs p1.Euler.Setup.state
  in
  let p2 = Euler.Setup.sod ~nx:64 () in
  let a = Euler.Array_style.create ~bcs:p2.Euler.Setup.bcs p2.Euler.Setup.state in
  for _ = 1 to 40 do
    ignore (Euler.Solver.step s);
    ignore (Euler.Array_style.step a)
  done;
  check_bool "1d equivalent" true
    (Euler.State.max_abs_diff s.Euler.Solver.state
       (Euler.Array_style.state a)
     < 1e-12);
  check_float 1e-12 "same time" s.Euler.Solver.time
    (Euler.Array_style.time a)

let test_array_style_matches_2d () =
  let p1 = Euler.Setup.two_channel ~cells_per_h:8 () in
  let s =
    Euler.Solver.create ~config:Euler.Solver.benchmark_config
      ~bcs:p1.Euler.Setup.bcs p1.Euler.Setup.state
  in
  let p2 = Euler.Setup.two_channel ~cells_per_h:8 () in
  let a = Euler.Array_style.create ~bcs:p2.Euler.Setup.bcs p2.Euler.Setup.state in
  for _ = 1 to 20 do
    ignore (Euler.Solver.step s);
    ignore (Euler.Array_style.step a)
  done;
  check_bool "2d equivalent" true
    (Euler.State.max_abs_diff s.Euler.Solver.state
       (Euler.Array_style.state a)
     < 1e-11)

let test_array_style_counts_with_loops () =
  let p = Euler.Setup.sod ~nx:32 () in
  let a = Euler.Array_style.create ~bcs:p.Euler.Setup.bcs p.Euler.Setup.state in
  check_bool "nan before first step" true
    (Float.is_nan (Euler.Array_style.with_loops_per_step a));
  ignore (Euler.Array_style.step a);
  check_bool "counts accumulate" true (Euler.Array_style.with_loops a > 50);
  check_bool "per-step sensible" true
    (Euler.Array_style.with_loops_per_step a > 50.)

(* ------------------------------------------------------------------ *)
(* Field_io                                                            *)
(* ------------------------------------------------------------------ *)

let test_field_io_csv () =
  let path = Filename.temp_file "fieldio" ".csv" in
  Euler.Field_io.write_profile_csv ~path
    ~columns:[ ("x", [| 1.; 2. |]); ("y", [| 3.; 4. |]) ];
  let ic = open_in path in
  let l1 = input_line ic and l2 = input_line ic and l3 = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "x,y" l1;
  Alcotest.(check string) "row1" "1,3" l2;
  Alcotest.(check string) "row2" "2,4" l3

let test_field_io_csv_ragged () =
  check_bool "ragged rejected" true
    (try
       Euler.Field_io.write_profile_csv ~path:"/tmp/nope.csv"
         ~columns:[ ("x", [| 1. |]); ("y", [| 1.; 2. |]) ];
       false
     with Invalid_argument _ -> true)

let test_field_io_pgm () =
  let path = Filename.temp_file "fieldio" ".pgm" in
  let t = Tensor.Nd.of_list2 [ [ 0.; 1. ]; [ 0.5; 0.25 ] ] in
  Euler.Field_io.write_pgm ~path t;
  let ic = open_in_bin path in
  let magic = input_line ic in
  let dims = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "magic" "P5" magic;
  Alcotest.(check string) "dims" "2 2" dims

let test_field_io_schlieren () =
  (* Uniform field: schlieren = 1 everywhere; a jump darkens (value
     toward 0) along the discontinuity. *)
  let flat = Tensor.Nd.create [| 4; 4 |] 2. in
  let s = Euler.Field_io.schlieren flat in
  check_float 1e-12 "uniform -> 1" 1. (Tensor.Nd.minval s);
  let jump =
    Tensor.Nd.init [| 4; 4 |] (fun iv -> if iv.(1) < 2 then 1. else 5.)
  in
  let s = Euler.Field_io.schlieren jump in
  check_bool "jump darkens" true (Tensor.Nd.minval s < 0.1)

let test_field_io_vtk () =
  let path = Filename.temp_file "fieldio" ".vtk" in
  let rho = Tensor.Nd.of_list2 [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let p = Tensor.Nd.of_list2 [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  Euler.Field_io.write_vtk ~path ~spacing:(0.5, 0.5)
    [ ("rho", rho); ("p", p) ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check string) "magic" "# vtk DataFile Version 3.0"
    (List.nth lines 0);
  check_bool "dimensions" true
    (List.mem "DIMENSIONS 3 3 1" lines);
  check_bool "cell data" true (List.mem "CELL_DATA 4" lines);
  check_bool "both fields" true
    (List.mem "SCALARS rho double 1" lines
     && List.mem "SCALARS p double 1" lines);
  (* 2 headers + 2*4 values present after CELL_DATA *)
  check_bool "values" true (List.mem "1" lines && List.mem "8" lines);
  check_bool "shape mismatch rejected" true
    (try
       Euler.Field_io.write_vtk ~path:"/tmp/nope.vtk"
         [ ("a", rho); ("b", Tensor.Nd.of_list2 [ [ 1. ] ]) ];
       false
     with Invalid_argument _ -> true)

let test_field_io_ascii () =
  let s = Euler.Field_io.ascii_profile ~width:10 ~height:4 [| 0.; 1. |] in
  check_bool "profile non-empty" true (String.length s > 0);
  let c =
    Euler.Field_io.ascii_contour ~width:10 ~height:4
      (Tensor.Nd.init [| 3; 3 |] (fun iv -> float_of_int (iv.(0) + iv.(1))))
  in
  check_int "contour size" ((10 + 1) * 4) (String.length c);
  check_int "contour lines" 4
    (String.fold_left (fun n ch -> if ch = '\n' then n + 1 else n) 0 c)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let state_gen =
  QCheck2.Gen.(
    let* rho = float_range 0.1 5. in
    let* u = float_range (-2.) 2. in
    let* v = float_range (-2.) 2. in
    let* p = float_range 0.1 5. in
    return (rho, u, v, p))

let prop_characteristic_inverse =
  QCheck2.Test.make ~name:"eigenvector matrices are mutual inverses"
    ~count:300 state_gen (fun (rho, un, ut, p) ->
      let b = Euler.Characteristic.of_state ~gamma ~rho ~un ~ut ~p in
      mat_mul_ident
        (Euler.Characteristic.left_matrix b)
        (Euler.Characteristic.right_matrix b)
      < 1e-9)

let prop_roe_average_between =
  QCheck2.Test.make ~name:"roe-average eigenvalues lie between states"
    ~count:300
    QCheck2.Gen.(pair state_gen state_gen)
    (fun ((r1, u1, t1, p1), (r2, u2, t2, p2)) ->
      let b =
        Euler.Characteristic.of_roe_average ~gamma ~left:(r1, u1, t1, p1)
          ~right:(r2, u2, t2, p2)
      in
      let _, lmid, _, _ = Euler.Characteristic.eigenvalues b in
      (* The Roe-averaged velocity is a weighted mean of u1, u2. *)
      lmid >= Float.min u1 u2 -. 1e-9 && lmid <= Float.max u1 u2 +. 1e-9)

let prop_riemann_consistent =
  QCheck2.Test.make ~name:"numerical flux is consistent" ~count:200
    state_gen (fun (rho, un, ut, p) ->
      let q = (rho, un, ut, p) in
      let expected = physical_flux q in
      List.for_all
        (fun kind ->
          let f = Euler.Riemann.flux kind ~gamma ~left:q ~right:q in
          let ok = ref true in
          Array.iteri
            (fun k x ->
              if Float.abs (x -. expected.(k))
                 > 1e-8 *. (1. +. Float.abs expected.(k))
              then ok := false)
            f;
          !ok)
        solvers)

let prop_limiters_tvd_bounds =
  QCheck2.Test.make ~name:"limited slope within 2x of both one-sided slopes"
    ~count:500
    QCheck2.Gen.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
      List.for_all
        (fun lim ->
          let s = Euler.Limiter.apply lim a b in
          if a *. b <= 0. then s = 0.
          else
            Float.abs s <= 2. *. Float.min (Float.abs a) (Float.abs b) +. 1e-12
            && s *. a >= 0.)
        limiters)

let prop_limiters_symmetric =
  QCheck2.Test.make ~name:"limiters are symmetric" ~count:500
    QCheck2.Gen.(pair (float_range (-3.) 3.) (float_range (-3.) 3.))
    (fun (a, b) ->
      List.for_all
        (fun lim ->
          Float.abs
            (Euler.Limiter.apply lim a b -. Euler.Limiter.apply lim b a)
          < 1e-12)
        limiters)

let prop_recon_bounded_tvd =
  QCheck2.Test.make ~name:"TVD interface values within local data range"
    ~count:500
    QCheck2.Gen.(
      let* w0 = float_range (-5.) 5. in
      let* w1 = float_range (-5.) 5. in
      let* w2 = float_range (-5.) 5. in
      let* w3 = float_range (-5.) 5. in
      return (w0, w1, w2, w3))
    (fun (w0, w1, w2, w3) ->
      List.for_all
        (fun k ->
          let wl, wr = Euler.Recon.left_right k w0 w1 w2 w3 in
          let lo = Float.min (Float.min w0 w1) (Float.min w2 w3)
          and hi = Float.max (Float.max w0 w1) (Float.max w2 w3) in
          wl >= lo -. 1e-9 && wl <= hi +. 1e-9 && wr >= lo -. 1e-9
          && wr <= hi +. 1e-9)
        [ Euler.Recon.Piecewise_constant;
          Euler.Recon.Tvd2 Euler.Limiter.Minmod;
          Euler.Recon.Tvd2 Euler.Limiter.Van_leer ])

let prop_exact_riemann_star_positive =
  QCheck2.Test.make ~name:"exact solver star pressure positive" ~count:200
    QCheck2.Gen.(
      let* r1 = float_range 0.1 3. in
      let* p1 = float_range 0.1 3. in
      let* r2 = float_range 0.1 3. in
      let* p2 = float_range 0.1 3. in
      let* u1 = float_range (-0.5) 0.5 in
      let* u2 = float_range (-0.5) 0.5 in
      return ((r1, u1, p1), (r2, u2, p2)))
    (fun (left, right) ->
      let s = Euler.Exact_riemann.solve ~gamma ~left ~right () in
      s.Euler.Exact_riemann.p_star > 0.
      && s.Euler.Exact_riemann.iterations <= 101)

let prop_rh_ratios_monotone =
  QCheck2.Test.make ~name:"post-shock ratios grow with Ms" ~count:100
    QCheck2.Gen.(float_range 1.01 4.9)
    (fun ms ->
      let a = Euler.Rankine_hugoniot.post_shock ~gamma ~ms ~rho0:1. ~p0:1. in
      let b =
        Euler.Rankine_hugoniot.post_shock ~gamma ~ms:(ms +. 0.1) ~rho0:1.
          ~p0:1.
      in
      b.Euler.Rankine_hugoniot.p > a.Euler.Rankine_hugoniot.p
      && b.Euler.Rankine_hugoniot.rho > a.Euler.Rankine_hugoniot.rho
      && a.Euler.Rankine_hugoniot.rho < 6.)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_characteristic_inverse;
      prop_roe_average_between;
      prop_riemann_consistent;
      prop_limiters_tvd_bounds;
      prop_limiters_symmetric;
      prop_recon_bounded_tvd;
      prop_exact_riemann_star_positive;
      prop_rh_ratios_monotone ]

(* ------------------------------------------------------------------ *)
(* Allocation-free hot path: bitwise pins against the boxed APIs       *)
(* ------------------------------------------------------------------ *)

(* The [_into]/[_pr] variants are independent transcriptions of the
   boxed implementations, not wrappers; these pins are what keeps the
   two families in lockstep (max abs diff exactly 0, not within a
   tolerance). *)

let all_recon_kinds =
  List.filter_map
    (fun n -> Option.map (fun k -> (n, k)) (Euler.Recon.of_string n))
    Euler.Recon.all_names

let test_hotpath_recon_pin () =
  let rng = Random.State.make [| 20260806 |] in
  let wl = Array.make 4 0. and wr = Array.make 4 0. in
  List.iter
    (fun (name, kind) ->
      let width = Euler.Recon.stencil_width kind in
      for _ = 1 to 200 do
        let w =
          Array.init width (fun _ -> Random.State.float rng 4. -. 2.)
        in
        let l, r = Euler.Recon.left_right_window kind w in
        Euler.Recon.left_right_into kind w ~wl ~wr ~k:2;
        check_bool (name ^ " left bitwise") true (wl.(2) = l);
        check_bool (name ^ " right bitwise") true (wr.(2) = r)
      done)
    all_recon_kinds

let test_hotpath_characteristic_pin () =
  let rng = Random.State.make [| 7 |] in
  let l = Array.make 16 0.
  and r = Array.make 16 0.
  and ev = Array.make 4 0.
  and pr = Array.make 8 0.
  and q = Array.make 4 0.
  and w_old = Array.make 4 0.
  and w_new = Array.make 4 0. in
  let rand_state () =
    ( 0.1 +. Random.State.float rng 3.,
      Random.State.float rng 4. -. 2.,
      Random.State.float rng 4. -. 2.,
      0.1 +. Random.State.float rng 3. )
  in
  for _ = 1 to 200 do
    let (rho_l, un_l, ut_l, p_l) as left = rand_state () in
    let (rho_r, un_r, ut_r, p_r) as right = rand_state () in
    let basis = Euler.Characteristic.of_roe_average ~gamma ~left ~right in
    pr.(0) <- rho_l; pr.(1) <- un_l; pr.(2) <- ut_l; pr.(3) <- p_l;
    pr.(4) <- rho_r; pr.(5) <- un_r; pr.(6) <- ut_r; pr.(7) <- p_r;
    Euler.Characteristic.roe_into ~gamma ~pr ~l ~r ~ev;
    let lm = Euler.Characteristic.left_matrix basis
    and rm = Euler.Characteristic.right_matrix basis in
    for i = 0 to 15 do
      check_bool "L bitwise" true (l.(i) = lm.(i));
      check_bool "R bitwise" true (r.(i) = rm.(i))
    done;
    let e0, e1, e2, e3 = Euler.Characteristic.eigenvalues basis in
    check_bool "eigenvalues bitwise" true
      (ev.(0) = e0 && ev.(1) = e1 && ev.(2) = e2 && ev.(3) = e3);
    (* project_into with the copied-out matrix reproduces the basis
       projection exactly. *)
    for i = 0 to 3 do
      q.(i) <- Random.State.float rng 2. -. 1.
    done;
    Euler.Characteristic.to_characteristic basis q w_old;
    Euler.Characteristic.project_into lm q w_new;
    for i = 0 to 3 do
      check_bool "projection bitwise" true (w_old.(i) = w_new.(i))
    done
  done

let test_hotpath_riemann_pin () =
  let rng = Random.State.make [| 99 |] in
  let s = Euler.Riemann.make_scratch () in
  let f = Array.make 4 0.
  and fp = Array.make 4 0.
  and pr = Array.make 8 0. in
  List.iter
    (fun (name, kind) ->
      for _ = 1 to 200 do
        let rho_l = 0.1 +. Random.State.float rng 3.
        and un_l = Random.State.float rng 4. -. 2.
        and ut_l = Random.State.float rng 4. -. 2.
        and p_l = 0.1 +. Random.State.float rng 3.
        and rho_r = 0.1 +. Random.State.float rng 3.
        and un_r = Random.State.float rng 4. -. 2.
        and ut_r = Random.State.float rng 4. -. 2.
        and p_r = 0.1 +. Random.State.float rng 3. in
        Euler.Riemann.flux_into kind ~gamma ~rho_l ~un_l ~ut_l ~p_l ~rho_r
          ~un_r ~ut_r ~p_r ~f;
        pr.(0) <- rho_l; pr.(1) <- un_l; pr.(2) <- ut_l; pr.(3) <- p_l;
        pr.(4) <- rho_r; pr.(5) <- un_r; pr.(6) <- ut_r; pr.(7) <- p_r;
        Euler.Riemann.flux_pr_into kind ~gamma ~pr ~s ~f:fp;
        for i = 0 to 3 do
          check_bool (name ^ " flux bitwise") true (f.(i) = fp.(i))
        done
      done)
    Euler.Riemann.all

let test_hotpath_rhs_schedulers_identical () =
  (* The arena-backed RHS must produce bit-identical divergences no
     matter which scheduler (and hence which lane decomposition) runs
     the sweeps: lanes only partition rows/columns, they never change
     the arithmetic.  17x13 exercises uneven chunking with 3 lanes. *)
  let g = Euler.Grid.make ~nx:17 ~ny:13 ~lx:1. ~ly:1. () in
  List.iter
    (fun (name, recon) ->
      let st = Euler.State.create g in
      for o = 0 to g.Euler.Grid.cells - 1 do
        let x = float_of_int o in
        (* Smooth field with an embedded jump; physical everywhere,
           ghosts included. *)
        let jump = if o mod 37 < 18 then 0.8 else 0. in
        let rho = 1. +. (0.3 *. sin (0.05 *. x)) +. jump in
        let u = 0.4 *. cos (0.03 *. x) in
        let v = -0.2 *. sin (0.02 *. x) in
        let p = 1. +. (0.5 *. cos (0.04 *. x)) +. jump in
        st.Euler.State.q.(0).(o) <- rho;
        st.Euler.State.q.(1).(o) <- rho *. u;
        st.Euler.State.q.(2).(o) <- rho *. v;
        st.Euler.State.q.(3).(o) <-
          Euler.Gas.total_energy ~gamma ~rho ~u ~v ~p
      done;
      let cfg = { Euler.Rhs.recon; riemann = Euler.Riemann.Hllc } in
      let dqdt_of exec =
        let d = Array.init 4 (fun _ -> Array.make g.Euler.Grid.cells 0.) in
        Euler.Rhs.compute cfg exec st d;
        d
      in
      let a = dqdt_of (Parallel.Exec.sequential ()) in
      List.iter
        (fun (ename, exec) ->
          let b = dqdt_of exec in
          let diff = ref 0. in
          for k = 0 to 3 do
            for o = 0 to g.Euler.Grid.cells - 1 do
              let d = Float.abs (a.(k).(o) -. b.(k).(o)) in
              if d > !diff then diff := d
            done
          done;
          check_float 0.
            (Printf.sprintf "%s: %s = sequential" name ename)
            0. !diff)
        [ ("spmd(3)", Parallel.Exec.spmd ~lanes:3);
          ("fork-join(3)", Parallel.Exec.fork_join ~lanes:3) ])
    all_recon_kinds

(* ------------------------------------------------------------------ *)
(* Fused stage pipeline (with-loop folding at the solver scale)        *)
(* ------------------------------------------------------------------ *)

(* Advance [steps] steps of the two-channel problem and return the
   final solver plus the dt sequence.  The dt sequence is the most
   sensitive witness: any divergence compounds step over step. *)
let fused_advance ~fused ~exec ~steps config =
  let prob = Euler.Setup.two_channel ~cells_per_h:6 () in
  let s =
    Euler.Solver.create ~exec
      ~config:{ config with Euler.Solver.fused }
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  let dts = Array.init steps (fun _ -> Euler.Solver.step s) in
  (s, dts)

let test_fused_matches_unfused_matrix () =
  (* Fused and unfused pipelines share the exact same phase closures,
     so every scheme combination must agree to the last bit — state
     and dt sequence alike. *)
  List.iter
    (fun recon ->
      List.iter
        (fun riemann ->
          let config =
            { Euler.Solver.default_config with
              Euler.Solver.recon;
              riemann;
              cfl = 0.4 }
          in
          let run fused =
            fused_advance ~fused ~exec:(Parallel.Exec.sequential ())
              ~steps:6 config
          in
          let sf, df = run true and su, du = run false in
          let name =
            Euler.Recon.name recon ^ "+" ^ Euler.Riemann.name riemann
          in
          Alcotest.(check (array (float 0.)))
            (name ^ " dt sequence bitwise") du df;
          check_float 0. (name ^ " states bitwise") 0.
            (Euler.State.max_abs_diff su.Euler.Solver.state
               sf.Euler.Solver.state))
        solvers)
    all_schemes

let test_fused_schedulers_identical () =
  (* The folded dispatch must not depend on how lanes chunk the
     phases: spmd and fork/join, fused and unfused, all equal the
     sequential unfused baseline bitwise. *)
  let config = Euler.Solver.default_config in
  let su, du =
    fused_advance ~fused:false ~exec:(Parallel.Exec.sequential ()) ~steps:6
      config
  in
  List.iter
    (fun (name, exec, fused) ->
      let s, d = fused_advance ~fused ~exec ~steps:6 config in
      Alcotest.(check (array (float 0.))) (name ^ " dt sequence") du d;
      check_float 0. (name ^ " state") 0.
        (Euler.State.max_abs_diff su.Euler.Solver.state s.Euler.Solver.state))
    [ ("seq fused", Parallel.Exec.sequential (), true);
      ("spmd(3) fused", Parallel.Exec.spmd ~lanes:3, true);
      ("fork-join(3) fused", Parallel.Exec.fork_join ~lanes:3, true);
      ("spmd(3) unfused", Parallel.Exec.spmd ~lanes:3, false);
      ("fork-join(3) unfused", Parallel.Exec.fork_join ~lanes:3, false) ]

let test_fused_1d_fallback () =
  (* 1D grids (ny = 1 < ng) take Bc.phases' sequential-fallback phase;
     results must still be bitwise identical, also under spmd. *)
  let run fused exec =
    let prob = Euler.Setup.sod ~nx:40 () in
    let s =
      Euler.Solver.create ~exec
        ~config:{ Euler.Solver.default_config with Euler.Solver.fused }
        ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
    in
    let dts = Array.init 8 (fun _ -> Euler.Solver.step s) in
    (s, dts)
  in
  let su, du = run false (Parallel.Exec.sequential ()) in
  List.iter
    (fun (name, exec) ->
      let s, d = run true exec in
      Alcotest.(check (array (float 0.))) (name ^ " 1d dt sequence") du d;
      check_float 0. (name ^ " 1d state") 0.
        (Euler.State.max_abs_diff su.Euler.Solver.state s.Euler.Solver.state))
    [ ("seq", Parallel.Exec.sequential ());
      ("spmd(3)", Parallel.Exec.spmd ~lanes:3) ]

let test_fused_dt_matches_standalone () =
  (* The in-sweep eigenvalue cache must be bit-identical to a fresh
     standalone GetDT reduction on the advanced state — the dt fold
     changes where the max is computed, never its value. *)
  let exec = Parallel.Exec.spmd ~lanes:3 in
  let s, _ = fused_advance ~fused:true ~exec ~steps:4 Euler.Solver.default_config in
  let cached = Euler.Solver.dt s in
  let standalone =
    Euler.Time_step.dt ~cfl:s.Euler.Solver.config.Euler.Solver.cfl
      (Parallel.Exec.sequential ())
      s.Euler.Solver.state
  in
  check_float 0. "in-sweep dt = standalone dt" standalone cached;
  (* 1D, sequential, default solver path. *)
  let s1 = make_sod_solver 48 in
  Euler.Solver.run_steps s1 5;
  check_float 0. "1d in-sweep dt = standalone dt"
    (Euler.Time_step.dt ~cfl:s1.Euler.Solver.config.Euler.Solver.cfl
       (Parallel.Exec.sequential ())
       s1.Euler.Solver.state)
    (Euler.Solver.dt s1)

(* ------------------------------------------------------------------ *)
(* Tiled domain decomposition                                          *)
(* ------------------------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let test_tiling_split () =
  Alcotest.(check (array int)) "7 into 3 (larger first)" [| 3; 2; 2 |]
    (Euler.Tiling.split 7 3);
  Alcotest.(check (array int)) "even split" [| 4; 4; 4 |]
    (Euler.Tiling.split 12 3);
  Alcotest.(check (array int)) "single part" [| 5 |] (Euler.Tiling.split 5 1);
  check_int "extents sum to n" 23
    (Array.fold_left ( + ) 0 (Euler.Tiling.split 23 5));
  expect_invalid "more parts than cells" (fun () -> Euler.Tiling.split 2 3);
  expect_invalid "zero parts" (fun () -> Euler.Tiling.split 4 0)

let test_tiling_1d () =
  (* 1D grids only tile along x: a 1xC plan works, any rows > 1 is
     rejected up front with a message, not a downstream crash. *)
  let g = Euler.Grid.make_1d ~nx:40 ~lx:1. () in
  let p = Euler.Tiling.make ~rows:1 ~cols:3 g in
  check_int "tiles" 3 (Euler.Tiling.tiles p);
  let widths =
    List.init 3 (fun c -> snd (Euler.Tiling.col_extent p c))
  in
  Alcotest.(check (list int)) "column widths" [ 14; 13; 13 ] widths;
  List.iteri
    (fun c g ->
      check_int (Printf.sprintf "tile %d ny" c) 1 g.Euler.Grid.ny)
    (List.init 3 (fun c -> Euler.Tiling.tile_grid p ~r:0 ~c));
  expect_invalid "row tiling of a 1d grid" (fun () ->
      Euler.Tiling.make ~rows:2 ~cols:1 g);
  expect_invalid "tiles narrower than the halo" (fun () ->
      Euler.Tiling.make ~rows:1 ~cols:20 g)

let test_tiling_neighbors () =
  let g = Euler.Grid.make ~nx:24 ~ny:24 ~lx:1. ~ly:1. () in
  let p = Euler.Tiling.make ~rows:3 ~cols:3 g in
  let n r c side = Euler.Tiling.neighbor p ~r ~c side in
  (* South-west corner: physical on W and S, neighbours E and N. *)
  check_bool "corner W physical" true (n 0 0 Euler.Bc.West = None);
  check_bool "corner S physical" true (n 0 0 Euler.Bc.South = None);
  check_bool "corner E" true (n 0 0 Euler.Bc.East = Some (0, 1));
  check_bool "corner N" true (n 0 0 Euler.Bc.North = Some (1, 0));
  (* Interior tile: all four neighbours. *)
  check_bool "interior W" true (n 1 1 Euler.Bc.West = Some (1, 0));
  check_bool "interior E" true (n 1 1 Euler.Bc.East = Some (1, 2));
  check_bool "interior S" true (n 1 1 Euler.Bc.South = Some (0, 1));
  check_bool "interior N" true (n 1 1 Euler.Bc.North = Some (2, 1));
  (* North-east corner mirrors the south-west one. *)
  check_bool "ne corner E physical" true (n 2 2 Euler.Bc.East = None);
  check_bool "ne corner N physical" true (n 2 2 Euler.Bc.North = None);
  check_bool "ne corner W" true (n 2 2 Euler.Bc.West = Some (2, 1));
  check_bool "ne corner S" true (n 2 2 Euler.Bc.South = Some (1, 2))

let test_tiling_gather_scatter_identity () =
  (* scatter then gather must reproduce the monolithic padded array
     byte-for-byte, ghost ring included: the owned ranges partition it
     exactly.  Every padded cell gets a unique value so any overlap,
     gap or misaligned blit shows up. *)
  List.iter
    (fun (rows, cols, nx, ny) ->
      let g =
        if ny = 1 then Euler.Grid.make_1d ~nx ~lx:1. ()
        else Euler.Grid.make ~nx ~ny ~lx:1. ~ly:1. ()
      in
      let src = Euler.State.create g in
      Array.iteri
        (fun k q ->
          Array.iteri
            (fun i _ -> q.(i) <- (float_of_int k *. 1.0e6) +. float_of_int i)
            q)
        src.Euler.State.q;
      let p = Euler.Tiling.make ~rows ~cols g in
      let tiles = Euler.Tiling.states p ~gamma:src.Euler.State.gamma in
      Euler.Tiling.scatter p ~src ~into:tiles;
      let out = Euler.State.create g in
      Euler.Tiling.gather p ~tiles ~into:out;
      let name = Printf.sprintf "%dx%d on %dx%d grid" rows cols nx ny in
      Array.iteri
        (fun k q ->
          check_bool
            (Printf.sprintf "%s var %d bitwise" name k)
            true
            (Array.for_all2 ( = ) q out.Euler.State.q.(k)))
        src.Euler.State.q)
    [ (1, 1, 16, 16); (2, 2, 16, 16); (3, 2, 13, 11); (1, 3, 40, 1) ]

(* Advance the two-channel problem [steps] steps under an R x C
   decomposition; the monolithic baseline is tiles = (1, 1). *)
let tiled_advance ~tiles ~fused ~exec ~steps config =
  let prob = Euler.Setup.two_channel ~cells_per_h:6 () in
  let s =
    Euler.Solver.create ~exec
      ~config:{ config with Euler.Solver.fused; tiles }
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  let dts = Array.init steps (fun _ -> Euler.Solver.step s) in
  (s, dts)

let test_tiled_bitwise_scheme_matrix () =
  (* Every reconstruction x Riemann combination, tiled 2x2 and uneven
     3x2, against the monolithic run: dt sequences float-for-float and
     final states bit-for-bit.  Tiling is a data-layout choice, never
     a numerical one. *)
  List.iter
    (fun recon ->
      List.iter
        (fun riemann ->
          let config =
            { Euler.Solver.default_config with
              Euler.Solver.recon;
              riemann;
              cfl = 0.4 }
          in
          let run tiles =
            tiled_advance ~tiles ~fused:true
              ~exec:(Parallel.Exec.sequential ()) ~steps:4 config
          in
          let sm, dm = run (1, 1) in
          let name =
            Euler.Recon.name recon ^ "+" ^ Euler.Riemann.name riemann
          in
          List.iter
            (fun tiles ->
              let st, dt = run tiles in
              let r, c = tiles in
              let tname = Printf.sprintf "%s %dx%d" name r c in
              Alcotest.(check (array (float 0.)))
                (tname ^ " dt sequence bitwise") dm dt;
              check_float 0. (tname ^ " state bitwise") 0.
                (Euler.State.max_abs_diff sm.Euler.Solver.state
                   (Euler.Solver.current_state st)))
            [ (2, 2); (3, 2) ])
        solvers)
    all_schemes

let test_tiled_schedulers_identical () =
  (* The stitched run must not depend on the scheduler or on fusing:
     all six combinations equal the monolithic sequential baseline
     bitwise, on both an even and an uneven decomposition. *)
  let config = Euler.Solver.default_config in
  let sm, dm =
    tiled_advance ~tiles:(1, 1) ~fused:true
      ~exec:(Parallel.Exec.sequential ()) ~steps:6 config
  in
  List.iter
    (fun tiles ->
      let r, c = tiles in
      List.iter
        (fun (name, exec, fused) ->
          let s, d = tiled_advance ~tiles ~fused ~exec ~steps:6 config in
          let st = Euler.Solver.current_state s in
          let tname = Printf.sprintf "%s %dx%d" name r c in
          Alcotest.(check (array (float 0.))) (tname ^ " dt sequence") dm d;
          check_float 0. (tname ^ " state") 0.
            (Euler.State.max_abs_diff sm.Euler.Solver.state st))
        [ ("seq fused", Parallel.Exec.sequential (), true);
          ("seq unfused", Parallel.Exec.sequential (), false);
          ("spmd(3) fused", Parallel.Exec.spmd ~lanes:3, true);
          ("spmd(3) unfused", Parallel.Exec.spmd ~lanes:3, false);
          ("fork-join(3) fused", Parallel.Exec.fork_join ~lanes:3, true);
          ("fork-join(3) unfused", Parallel.Exec.fork_join ~lanes:3, false) ]
    )
    [ (2, 2); (3, 2) ]

let test_tiled_1d_bitwise () =
  (* Column tiling of a 1D Sod tube (the ny = 1 < ng special case all
     the way through halo exchange and the sequential BC fallback). *)
  let run tiles =
    let prob = Euler.Setup.sod ~nx:40 () in
    let s =
      Euler.Solver.create
        ~config:{ Euler.Solver.default_config with Euler.Solver.tiles }
        ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
    in
    let dts = Array.init 8 (fun _ -> Euler.Solver.step s) in
    (Euler.Solver.current_state s, dts)
  in
  let qm, dm = run (1, 1) in
  let qt, dt = run (1, 3) in
  Alcotest.(check (array (float 0.))) "1d dt sequence" dm dt;
  check_float 0. "1d state" 0. (Euler.State.max_abs_diff qm qt)

let test_tiled_regions_and_allocation () =
  (* The fused tiled step must stay within the folding budget — one
     dispatch per RK stage plus the single first-step GetDT region,
     (1 + 3) + 3 + 3 over 3 steps — and the lane arenas must stop
     growing after the warm-up step (zero steady-state allocation). *)
  let exec = Parallel.Exec.sequential () in
  let prob = Euler.Setup.two_channel ~cells_per_h:6 () in
  let s =
    Euler.Solver.create ~exec
      ~config:{ Euler.Solver.default_config with Euler.Solver.tiles = (2, 2) }
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  Euler.Solver.run_steps s 3;
  check_float 1e-9 "tiled fused regions/step" (10. /. 3.)
    (Euler.Solver.regions_per_step s);
  check_bool "tiled fused regions/step <= 4" true
    (Euler.Solver.regions_per_step s <= 4.);
  let ws = Parallel.Exec.workspace exec in
  let grown = Parallel.Workspace.growths ws in
  Euler.Solver.run_steps s 5;
  check_int "steady-state arena growths" grown (Parallel.Workspace.growths ws)

let test_tiled_ghost_validation () =
  (* Satellite 1: the solver refuses up front when the grid's ghost
     ring (= the inter-tile halo depth) is too shallow for the
     reconstruction stencil. *)
  check_int "pc needs 1" 1 (Euler.Recon.required_ghosts Euler.Recon.Piecewise_constant);
  check_int "weno5 needs 3" 3
    (Euler.Recon.required_ghosts Euler.Recon.Weno5);
  let g = Euler.Grid.make_1d ~ng:1 ~nx:32 ~lx:1. () in
  let st = Euler.State.create g in
  Euler.State.init_primitive st (fun ~x:_ ~y:_ -> (1., 0., 0., 1.));
  let bcs =
    [ (Euler.Bc.West, Euler.Bc.Outflow); (Euler.Bc.East, Euler.Bc.Outflow) ]
  in
  expect_invalid "weno5 on ng=1 grid" (fun () ->
      Euler.Solver.create
        ~config:
          { Euler.Solver.default_config with
            Euler.Solver.recon = Euler.Recon.Weno5 }
        ~bcs st);
  (* pc fits in one ghost layer, so the same grid is accepted. *)
  let s =
    Euler.Solver.create
      ~config:
        { Euler.Solver.default_config with
          Euler.Solver.recon = Euler.Recon.Piecewise_constant;
          riemann = Euler.Riemann.Rusanov }
      ~bcs st
  in
  ignore (Euler.Solver.step s);
  (* And a decomposition whose tiles are narrower than the halo is
     rejected at create, naming the dimension. *)
  let prob = Euler.Setup.sod ~nx:40 () in
  expect_invalid "tiles narrower than halo" (fun () ->
      Euler.Solver.create
        ~config:
          { Euler.Solver.default_config with Euler.Solver.tiles = (1, 20) }
        ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state)

(* ------------------------------------------------------------------ *)
(* Double Mach reflection: time-dependent BCs through every path       *)
(* ------------------------------------------------------------------ *)

let dmr_advance ~tiles ~fused ~exec ~steps =
  let prob = Euler.Setup.dmr ~nx:48 () in
  let s =
    Euler.Solver.create ~exec
      ~config:
        { Euler.Solver.benchmark_config with
          Euler.Solver.cfl = 0.4;
          fused;
          tiles }
      ~bcs:prob.Euler.Setup.bcs prob.Euler.Setup.state
  in
  let dts = Array.init steps (fun _ -> Euler.Solver.step s) in
  let q = Euler.Solver.current_state s in
  (q, dts)

let test_dmr_time_dependent_pin () =
  (* The DMR top boundary is Time_dependent — a Segmented split that
     moves with the incident shock — so every stage's ghost fill
     depends on the stage time.  This pins the unfused sequential
     baseline against fused, tiled and threaded runs: if any path
     evaluated the closure at a different time, the states would
     diverge within a step. *)
  let steps = 10 in
  let qm, dm =
    dmr_advance ~tiles:(1, 1) ~fused:false
      ~exec:(Parallel.Exec.sequential ()) ~steps
  in
  (* Sanity: a Mach-10 march that stayed finite. *)
  Array.iter
    (fun comp ->
      Array.iter
        (fun v -> check_bool "dmr finite" true (Float.is_finite v))
        comp)
    qm.Euler.State.q;
  List.iter
    (fun (name, mk_exec, fused, tiles) ->
      let q, d = dmr_advance ~tiles ~fused ~exec:(mk_exec ()) ~steps in
      Alcotest.(check (array (float 0.))) (name ^ " dt sequence") dm d;
      check_float 0. (name ^ " state") 0. (Euler.State.max_abs_diff qm q))
    [ ("seq fused", Parallel.Exec.sequential, true, (1, 1));
      ("spmd(3) fused", (fun () -> Parallel.Exec.spmd ~lanes:3), true, (1, 1));
      ( "fork-join(3) fused",
        (fun () -> Parallel.Exec.fork_join ~lanes:3),
        true,
        (1, 1) );
      ( "spmd(3) unfused",
        (fun () -> Parallel.Exec.spmd ~lanes:3),
        false,
        (1, 1) );
      ("seq fused 2x2", Parallel.Exec.sequential, true, (2, 2));
      ("seq unfused 2x2", Parallel.Exec.sequential, false, (2, 2));
      ( "spmd(3) fused 2x2",
        (fun () -> Parallel.Exec.spmd ~lanes:3),
        true,
        (2, 2) );
      ( "fork-join(3) fused 3x2",
        (fun () -> Parallel.Exec.fork_join ~lanes:3),
        true,
        (3, 2) ) ]

let () =
  Alcotest.run "euler"
    [ ( "gas",
        [ Alcotest.test_case "roundtrip" `Quick test_gas_roundtrip;
          Alcotest.test_case "sound speed" `Quick test_gas_sound_speed;
          Alcotest.test_case "enthalpy" `Quick test_gas_enthalpy;
          Alcotest.test_case "is_physical" `Quick test_gas_physical ] );
      ( "grid",
        [ Alcotest.test_case "geometry" `Quick test_grid_geometry;
          Alcotest.test_case "offsets unique" `Quick test_grid_offset_unique;
          Alcotest.test_case "1d" `Quick test_grid_1d;
          Alcotest.test_case "invalid" `Quick test_grid_invalid ] );
      ( "state",
        [ Alcotest.test_case "primitive roundtrip" `Quick
            test_state_primitive_roundtrip;
          Alcotest.test_case "totals" `Quick test_state_totals;
          Alcotest.test_case "fields" `Quick test_state_fields;
          Alcotest.test_case "copy/blit/diff" `Quick
            test_state_copy_blit_diff ] );
      ( "limiter",
        [ Alcotest.test_case "zero at extrema" `Quick
            test_limiter_zero_at_extrema;
          Alcotest.test_case "linear preserved" `Quick
            test_limiter_linear_preserved;
          Alcotest.test_case "specific values" `Quick
            test_limiter_specific_values;
          Alcotest.test_case "names" `Quick test_limiter_names ] );
      ( "characteristic",
        [ Alcotest.test_case "L R = I" `Quick test_characteristic_inverse;
          Alcotest.test_case "roundtrip" `Quick test_characteristic_roundtrip;
          Alcotest.test_case "eigenvalues" `Quick
            test_characteristic_eigenvalues;
          Alcotest.test_case "roe of equal states" `Quick
            test_characteristic_roe_symmetric;
          Alcotest.test_case "rejects non-physical" `Quick
            test_characteristic_rejects_bad ] );
      ( "riemann",
        [ Alcotest.test_case "consistency" `Quick test_riemann_consistency;
          Alcotest.test_case "supersonic upwind" `Quick
            test_riemann_supersonic_upwind;
          Alcotest.test_case "contact resolution" `Quick
            test_riemann_sod_star_values;
          Alcotest.test_case "rejects non-physical" `Quick
            test_riemann_rejects_bad ] );
      ( "recon",
        [ Alcotest.test_case "constant" `Quick test_recon_constant;
          Alcotest.test_case "linear exact" `Quick test_recon_linear_exact;
          Alcotest.test_case "pc" `Quick test_recon_pc;
          Alcotest.test_case "monotone at jump" `Quick
            test_recon_monotone_at_jump;
          Alcotest.test_case "weno weights" `Quick test_recon_weno_weights;
          Alcotest.test_case "weno5" `Quick test_recon_weno5;
          Alcotest.test_case "parsing" `Quick test_recon_parsing;
          Alcotest.test_case "ghost widths" `Quick test_recon_ghosts ] );
      ( "rankine-hugoniot",
        [ Alcotest.test_case "weak shock limit" `Quick
            test_rh_weak_shock_limit;
          Alcotest.test_case "Ms = 2.2 values" `Quick test_rh_ms22;
          Alcotest.test_case "conservation across shock" `Quick
            test_rh_conservation;
          Alcotest.test_case "supersonic exit" `Quick
            test_rh_supersonic_exit ] );
      ( "exact-riemann",
        [ Alcotest.test_case "sod star" `Quick test_exact_sod_star;
          Alcotest.test_case "sod sampled states" `Quick
            test_exact_sod_sampled_states;
          Alcotest.test_case "symmetric problem" `Quick
            test_exact_symmetric_problem;
          Alcotest.test_case "vacuum detected" `Quick
            test_exact_vacuum_detected;
          Alcotest.test_case "fan continuous" `Quick
            test_exact_rarefaction_continuous ] );
      ( "bc",
        [ Alcotest.test_case "outflow" `Quick test_bc_outflow;
          Alcotest.test_case "reflective" `Quick test_bc_reflective;
          Alcotest.test_case "inflow" `Quick test_bc_inflow;
          Alcotest.test_case "segmented" `Quick test_bc_segmented;
          Alcotest.test_case "nested rejected" `Quick
            test_bc_nested_segmented_rejected;
          Alcotest.test_case "time-dependent" `Quick test_bc_time_dependent ]
      );
      ( "time-step",
        [ Alcotest.test_case "uniform EV" `Quick test_dt_uniform;
          Alcotest.test_case "1d ignores y" `Quick test_dt_1d_ignores_y;
          Alcotest.test_case "invalid cfl" `Quick test_dt_invalid_cfl ] );
      ( "solver",
        [ Alcotest.test_case "uniform stationary" `Quick
            test_solver_uniform_stationary;
          Alcotest.test_case "conservation" `Quick test_solver_conservation;
          Alcotest.test_case "sod accuracy" `Quick test_solver_sod_accuracy;
          Alcotest.test_case "all configs stable" `Slow
            test_solver_sod_all_configs_stable;
          Alcotest.test_case "123 positivity" `Quick
            test_solver_123_positivity;
          Alcotest.test_case "smooth self-convergence" `Quick
            test_solver_convergence_order;
          Alcotest.test_case "rk orders agree" `Quick
            test_solver_rk_orders_agree;
          Alcotest.test_case "run_until exact" `Quick
            test_solver_run_until_exact;
          Alcotest.test_case "regions counted" `Quick
            test_solver_regions_counted ] );
      ( "two-channel",
        [ Alcotest.test_case "shocks enter" `Quick
            test_two_channel_shocks_enter;
          Alcotest.test_case "diagonal symmetry" `Quick
            test_two_channel_symmetry ] );
      ( "array-style",
        [ Alcotest.test_case "matches 1d" `Quick test_array_style_matches_1d;
          Alcotest.test_case "matches 2d" `Quick test_array_style_matches_2d;
          Alcotest.test_case "with-loop accounting" `Quick
            test_array_style_counts_with_loops ] );
      ( "field-io",
        [ Alcotest.test_case "csv" `Quick test_field_io_csv;
          Alcotest.test_case "csv ragged" `Quick test_field_io_csv_ragged;
          Alcotest.test_case "pgm" `Quick test_field_io_pgm;
          Alcotest.test_case "schlieren" `Quick test_field_io_schlieren;
          Alcotest.test_case "vtk" `Quick test_field_io_vtk;
          Alcotest.test_case "ascii" `Quick test_field_io_ascii ] );
      ( "hotpath",
        [ Alcotest.test_case "recon into pins window" `Quick
            test_hotpath_recon_pin;
          Alcotest.test_case "characteristic into pins basis" `Quick
            test_hotpath_characteristic_pin;
          Alcotest.test_case "riemann pr pins flux" `Quick
            test_hotpath_riemann_pin;
          Alcotest.test_case "rhs schedulers bit-identical" `Quick
            test_hotpath_rhs_schedulers_identical ] );
      ( "fused",
        [ Alcotest.test_case "matches unfused across schemes" `Quick
            test_fused_matches_unfused_matrix;
          Alcotest.test_case "schedulers bit-identical" `Quick
            test_fused_schedulers_identical;
          Alcotest.test_case "1d fallback bit-identical" `Quick
            test_fused_1d_fallback;
          Alcotest.test_case "in-sweep dt = standalone" `Quick
            test_fused_dt_matches_standalone ] );
      ( "tiling",
        [ Alcotest.test_case "split arithmetic" `Quick test_tiling_split;
          Alcotest.test_case "1d column tiling" `Quick test_tiling_1d;
          Alcotest.test_case "neighbour map" `Quick test_tiling_neighbors;
          Alcotest.test_case "gather . scatter = id" `Quick
            test_tiling_gather_scatter_identity;
          Alcotest.test_case "bitwise across schemes" `Quick
            test_tiled_bitwise_scheme_matrix;
          Alcotest.test_case "bitwise across schedulers" `Quick
            test_tiled_schedulers_identical;
          Alcotest.test_case "1d bitwise" `Quick test_tiled_1d_bitwise;
          Alcotest.test_case "regions and allocation" `Quick
            test_tiled_regions_and_allocation;
          Alcotest.test_case "ghost/halo validation" `Quick
            test_tiled_ghost_validation;
          Alcotest.test_case "dmr time-dependent bc pin" `Quick
            test_dmr_time_dependent_pin ] );
      ("properties", qcheck_cases) ]
