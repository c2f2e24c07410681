(* The reduction body is written without State.primitive: its tuple
   return would box four floats per cell per step.  The arithmetic is
   a term-for-term transcription of State.primitive + Gas.sound_speed
   (same operation order, so the dt sequence is bit-identical). *)
let max_eigenvalue exec (st : State.t) =
  let g = st.State.grid in
  let nx = g.Grid.nx and ny = g.Grid.ny in
  let one_d = Grid.is_1d g in
  let gamma = st.State.gamma in
  let q_rho = st.State.q.(State.i_rho)
  and q_mx = st.State.q.(State.i_mx)
  and q_my = st.State.q.(State.i_my)
  and q_e = st.State.q.(State.i_e) in
  (* The body stores into a preallocated per-lane slot (an unboxed
     float-array write) instead of returning a float, which would box
     one word per cell per call without flambda. *)
  Parallel.Exec.parallel_reduce_lanes exec ~lo:0 ~hi:(nx * ny)
    ~init:Float.neg_infinity ~combine:Float.max
    (fun ~acc ~cell:slot ~lane:_ cell ->
      let ix = cell mod nx and iy = cell / nx in
      let o = Grid.offset g ix iy in
      let rho = q_rho.(o)
      and mx = q_mx.(o)
      and my = q_my.(o)
      and e = q_e.(o) in
      let p =
        (gamma -. 1.) *. (e -. (((mx *. mx) +. (my *. my)) /. (2. *. rho)))
      in
      let u = mx /. rho and v = my /. rho in
      let c = Float.sqrt (gamma *. p /. rho) in
      let ev_x = (Float.abs u +. c) /. g.Grid.dx in
      let ev =
        if one_d then ev_x else ev_x +. ((Float.abs v +. c) /. g.Grid.dy)
      in
      if ev > acc.(slot) then acc.(slot) <- ev)

let dt ~cfl exec st =
  if cfl <= 0. then invalid_arg "Time_step.dt: cfl must be positive";
  cfl /. max_eigenvalue exec st
