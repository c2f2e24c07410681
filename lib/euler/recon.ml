type kind =
  | Piecewise_constant
  | Tvd2 of Limiter.kind
  | Tvd3 of Limiter.kind
  | Weno3
  | Weno5

let name = function
  | Piecewise_constant -> "pc"
  | Tvd2 lim -> "tvd2:" ^ Limiter.name lim
  | Tvd3 lim -> "tvd3:" ^ Limiter.name lim
  | Weno3 -> "weno3"
  | Weno5 -> "weno5"

let of_string s =
  match String.lowercase_ascii s with
  | "pc" -> Some Piecewise_constant
  | "weno3" -> Some Weno3
  | "weno5" -> Some Weno5
  | "tvd2" -> Some (Tvd2 Limiter.Minmod)
  | "tvd3" -> Some (Tvd3 Limiter.Minmod)
  | s -> (
    match String.index_opt s ':' with
    | None -> None
    | Some i -> (
      let scheme = String.sub s 0 i
      and lim = String.sub s (i + 1) (String.length s - i - 1) in
      match (scheme, Limiter.of_string lim) with
      | "tvd2", Some l -> Some (Tvd2 l)
      | "tvd3", Some l -> Some (Tvd3 l)
      | _ -> None))

let all_names =
  "pc" :: "weno3" :: "weno5"
  :: List.concat_map
       (fun (lname, _) -> [ "tvd2:" ^ lname; "tvd3:" ^ lname ])
       Limiter.all

let ghost_needed = function
  | Piecewise_constant -> 1
  | Tvd2 _ | Tvd3 _ | Weno3 -> 2
  | Weno5 -> 3

let required_ghosts = ghost_needed

let stencil_width = function
  | Piecewise_constant | Tvd2 _ | Tvd3 _ | Weno3 -> 4
  | Weno5 -> 6

let order = function
  | Piecewise_constant -> 1
  | Tvd2 _ -> 2
  | Tvd3 _ | Weno3 -> 3
  | Weno5 -> 5

let weno_eps = 1e-6

(* Left-biased WENO3 around cell w1: candidate stencils
   {w1,w2} (central) and {w0,w1} (upwind). *)
let weno3_weights w0 w1 w2 =
  let b0 = (w2 -. w1) *. (w2 -. w1)
  and b1 = (w1 -. w0) *. (w1 -. w0) in
  let a0 = 2. /. 3. /. ((weno_eps +. b0) *. (weno_eps +. b0))
  and a1 = 1. /. 3. /. ((weno_eps +. b1) *. (weno_eps +. b1)) in
  let s = a0 +. a1 in
  (a0 /. s, a1 /. s)

let weno3_biased w0 w1 w2 =
  let o0, o1 = weno3_weights w0 w1 w2 in
  (o0 *. ((w1 +. w2) /. 2.)) +. (o1 *. (((3. *. w1) -. w0) /. 2.))

(* Left-biased WENO5 on cells w0..w4 centred at w2 (Jiang & Shu):
   smoothness indicators and ideal weights (0.1, 0.6, 0.3). *)
let weno5_smoothness w =
  let sq x = x *. x in
  let b0 =
    (13. /. 12. *. sq (w.(0) -. (2. *. w.(1)) +. w.(2)))
    +. (0.25 *. sq (w.(0) -. (4. *. w.(1)) +. (3. *. w.(2))))
  and b1 =
    (13. /. 12. *. sq (w.(1) -. (2. *. w.(2)) +. w.(3)))
    +. (0.25 *. sq (w.(1) -. w.(3)))
  and b2 =
    (13. /. 12. *. sq (w.(2) -. (2. *. w.(3)) +. w.(4)))
    +. (0.25 *. sq ((3. *. w.(2)) -. (4. *. w.(3)) +. w.(4)))
  in
  (b0, b1, b2)

let weno5_weights w =
  if Array.length w <> 5 then
    invalid_arg "Recon.weno5_weights: window must have 5 cells";
  let b0, b1, b2 = weno5_smoothness w in
  let a0 = 0.1 /. ((weno_eps +. b0) *. (weno_eps +. b0))
  and a1 = 0.6 /. ((weno_eps +. b1) *. (weno_eps +. b1))
  and a2 = 0.3 /. ((weno_eps +. b2) *. (weno_eps +. b2)) in
  let s = a0 +. a1 +. a2 in
  (a0 /. s, a1 /. s, a2 /. s)

let weno5_biased w =
  let o0, o1, o2 = weno5_weights w in
  let q0 =
    ((2. *. w.(0)) -. (7. *. w.(1)) +. (11. *. w.(2))) /. 6.
  and q1 = (-.w.(1) +. (5. *. w.(2)) +. (2. *. w.(3))) /. 6.
  and q2 = ((2. *. w.(2)) +. (5. *. w.(3)) -. w.(4)) /. 6. in
  (o0 *. q0) +. (o1 *. q1) +. (o2 *. q2)

(* Third-order (kappa = 1/3) MUSCL: the unlimited interface slope is
   (2 dp + dm) / 3, clipped against both one-sided differences scaled
   by a limiter-dependent compression factor (larger factors are less
   dissipative but squeeze discontinuities harder).  For smooth data
   (dm = dp) the clip is inactive and the reconstruction is exact for
   parabolas. *)
let tvd3_compression = function
  | Limiter.Minmod -> 1.
  | Limiter.Van_leer -> 1.5
  | Limiter.Monotonized_central -> 2.
  | Limiter.Superbee -> 2.

let tvd3_left lim dm dp =
  (* Half the limited slope: the correction added on the high side of
     the cell whose one-sided differences are dm (backward) and dp
     (forward). *)
  let b = tvd3_compression lim in
  let s = Limiter.minmod3 (((2. *. dp) +. dm) /. 3.) (b *. dm) (b *. dp) in
  s /. 2.

let left_right kind w0 w1 w2 w3 =
  match kind with
  | Piecewise_constant -> (w1, w2)
  | Tvd2 lim ->
    let phi = Limiter.apply lim in
    let wl = w1 +. (0.5 *. phi (w1 -. w0) (w2 -. w1))
    and wr = w2 -. (0.5 *. phi (w2 -. w1) (w3 -. w2)) in
    (wl, wr)
  | Tvd3 lim ->
    let wl = w1 +. tvd3_left lim (w1 -. w0) (w2 -. w1)
    and wr = w2 -. tvd3_left lim (w3 -. w2) (w2 -. w1) in
    (wl, wr)
  | Weno3 ->
    let wl = weno3_biased w0 w1 w2 and wr = weno3_biased w3 w2 w1 in
    (wl, wr)
  | Weno5 ->
    invalid_arg "Recon.left_right: weno5 needs a 6-cell window"

let left_right_window kind w =
  let width = stencil_width kind in
  if Array.length w <> width then
    invalid_arg "Recon.left_right_window: window length mismatch";
  match kind with
  | Piecewise_constant | Tvd2 _ | Tvd3 _ | Weno3 ->
    left_right kind w.(0) w.(1) w.(2) w.(3)
  | Weno5 ->
    (* Interface between w.(2) and w.(3): the left state uses cells
       w0..w4 biased at w2, the right state the reversed window
       w5..w1 biased at w3. *)
    let wl = weno5_biased [| w.(0); w.(1); w.(2); w.(3); w.(4) |] in
    let wr = weno5_biased [| w.(5); w.(4); w.(3); w.(2); w.(1) |] in
    (wl, wr)

(* ------------------------------------------------------------------ *)
(* Allocation-free out-parameter variant for the per-interface hot
   path.  Returning a float tuple (or calling the closure from
   Limiter.apply, or building the reversed WENO5 window) boxes words
   per characteristic field per interface, so the limiter and WENO
   formulas are transcribed inline here, term for term; the
   bitwise-equality test in test_euler pins this path to
   [left_right_window]. *)

let[@inline] limit lim a b =
  match lim with
  | Limiter.Minmod ->
    if a *. b <= 0. then 0.
    else if Float.abs a < Float.abs b then a
    else b
  | Limiter.Van_leer ->
    if a *. b <= 0. then 0. else 2. *. a *. b /. (a +. b)
  | Limiter.Superbee ->
    if a *. b <= 0. then 0.
    else begin
      let s = if a > 0. then 1. else -1. in
      let aa = Float.abs a and ab = Float.abs b in
      s *. Float.max (Float.min (2. *. aa) ab) (Float.min aa (2. *. ab))
    end
  | Limiter.Monotonized_central ->
    let x = (a +. b) /. 2. and y = 2. *. a and z = 2. *. b in
    if x > 0. && y > 0. && z > 0. then Float.min x (Float.min y z)
    else if x < 0. && y < 0. && z < 0. then Float.max x (Float.max y z)
    else 0.

let[@inline] minmod3 a b c =
  if a > 0. && b > 0. && c > 0. then Float.min a (Float.min b c)
  else if a < 0. && b < 0. && c < 0. then Float.max a (Float.max b c)
  else 0.

let left_right_into kind w ~wl ~wr ~k =
  match kind with
  | Piecewise_constant ->
    wl.(k) <- w.(1);
    wr.(k) <- w.(2)
  | Tvd2 lim ->
    wl.(k) <- w.(1) +. (0.5 *. limit lim (w.(1) -. w.(0)) (w.(2) -. w.(1)));
    wr.(k) <- w.(2) -. (0.5 *. limit lim (w.(2) -. w.(1)) (w.(3) -. w.(2)))
  | Tvd3 lim ->
    let b = tvd3_compression lim in
    let dm = w.(1) -. w.(0) and dp = w.(2) -. w.(1) in
    let sl = minmod3 (((2. *. dp) +. dm) /. 3.) (b *. dm) (b *. dp) in
    let dm = w.(3) -. w.(2) and dp = w.(2) -. w.(1) in
    let sr = minmod3 (((2. *. dp) +. dm) /. 3.) (b *. dm) (b *. dp) in
    wl.(k) <- w.(1) +. (sl /. 2.);
    wr.(k) <- w.(2) -. (sr /. 2.)
  | Weno3 ->
    (* Left state: biased at w.(1) on (w.(0), w.(1), w.(2)). *)
    let b0 = (w.(2) -. w.(1)) *. (w.(2) -. w.(1))
    and b1 = (w.(1) -. w.(0)) *. (w.(1) -. w.(0)) in
    let a0 = 2. /. 3. /. ((weno_eps +. b0) *. (weno_eps +. b0))
    and a1 = 1. /. 3. /. ((weno_eps +. b1) *. (weno_eps +. b1)) in
    let s = a0 +. a1 in
    wl.(k) <-
      ((a0 /. s) *. ((w.(1) +. w.(2)) /. 2.))
      +. ((a1 /. s) *. (((3. *. w.(1)) -. w.(0)) /. 2.));
    (* Right state: biased at w.(2) on the reversed triple
       (w.(3), w.(2), w.(1)). *)
    let b0 = (w.(1) -. w.(2)) *. (w.(1) -. w.(2))
    and b1 = (w.(2) -. w.(3)) *. (w.(2) -. w.(3)) in
    let a0 = 2. /. 3. /. ((weno_eps +. b0) *. (weno_eps +. b0))
    and a1 = 1. /. 3. /. ((weno_eps +. b1) *. (weno_eps +. b1)) in
    let s = a0 +. a1 in
    wr.(k) <-
      ((a0 /. s) *. ((w.(2) +. w.(1)) /. 2.))
      +. ((a1 /. s) *. (((3. *. w.(2)) -. w.(3)) /. 2.))
  | Weno5 ->
    (* Left state: biased at w.(2) on cells w.(0)..w.(4). *)
    let d0 = w.(0) -. (2. *. w.(1)) +. w.(2)
    and e0 = w.(0) -. (4. *. w.(1)) +. (3. *. w.(2))
    and d1 = w.(1) -. (2. *. w.(2)) +. w.(3)
    and e1 = w.(1) -. w.(3)
    and d2 = w.(2) -. (2. *. w.(3)) +. w.(4)
    and e2 = (3. *. w.(2)) -. (4. *. w.(3)) +. w.(4) in
    let b0 = (13. /. 12. *. (d0 *. d0)) +. (0.25 *. (e0 *. e0))
    and b1 = (13. /. 12. *. (d1 *. d1)) +. (0.25 *. (e1 *. e1))
    and b2 = (13. /. 12. *. (d2 *. d2)) +. (0.25 *. (e2 *. e2)) in
    let a0 = 0.1 /. ((weno_eps +. b0) *. (weno_eps +. b0))
    and a1 = 0.6 /. ((weno_eps +. b1) *. (weno_eps +. b1))
    and a2 = 0.3 /. ((weno_eps +. b2) *. (weno_eps +. b2)) in
    let s = a0 +. a1 +. a2 in
    let q0 = ((2. *. w.(0)) -. (7. *. w.(1)) +. (11. *. w.(2))) /. 6.
    and q1 = (-.w.(1) +. (5. *. w.(2)) +. (2. *. w.(3))) /. 6.
    and q2 = ((2. *. w.(2)) +. (5. *. w.(3)) -. w.(4)) /. 6. in
    wl.(k) <- ((a0 /. s) *. q0) +. ((a1 /. s) *. q1) +. ((a2 /. s) *. q2);
    (* Right state: biased at w.(3) on the reversed window
       w.(5)..w.(1). *)
    let d0 = w.(5) -. (2. *. w.(4)) +. w.(3)
    and e0 = w.(5) -. (4. *. w.(4)) +. (3. *. w.(3))
    and d1 = w.(4) -. (2. *. w.(3)) +. w.(2)
    and e1 = w.(4) -. w.(2)
    and d2 = w.(3) -. (2. *. w.(2)) +. w.(1)
    and e2 = (3. *. w.(3)) -. (4. *. w.(2)) +. w.(1) in
    let b0 = (13. /. 12. *. (d0 *. d0)) +. (0.25 *. (e0 *. e0))
    and b1 = (13. /. 12. *. (d1 *. d1)) +. (0.25 *. (e1 *. e1))
    and b2 = (13. /. 12. *. (d2 *. d2)) +. (0.25 *. (e2 *. e2)) in
    let a0 = 0.1 /. ((weno_eps +. b0) *. (weno_eps +. b0))
    and a1 = 0.6 /. ((weno_eps +. b1) *. (weno_eps +. b1))
    and a2 = 0.3 /. ((weno_eps +. b2) *. (weno_eps +. b2)) in
    let s = a0 +. a1 +. a2 in
    let q0 = ((2. *. w.(5)) -. (7. *. w.(4)) +. (11. *. w.(3))) /. 6.
    and q1 = (-.w.(4) +. (5. *. w.(3)) +. (2. *. w.(2))) /. 6.
    and q2 = ((2. *. w.(3)) +. (5. *. w.(2)) -. w.(1)) /. 6. in
    wr.(k) <- ((a0 /. s) *. q0) +. ((a1 /. s) *. q1) +. ((a2 /. s) *. q2)
