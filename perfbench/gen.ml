(* Seeded input generator.  The same seed gives the same inputs; the
   program under test receives only what is generated here, so a claim
   made on one seed can be re-checked on an unseen one.  The families
   are narrow on purpose: they move the physics a little without
   moving the cost per step. *)

let rng ~seed salt = Random.State.make [| 0x5eed; salt; seed |]

let around st centre half_width =
  centre +. half_width *. (2. *. Random.State.float st 1. -. 1.)

type solver_input = {
  mach : float;  (* two-channel shock Mach number, 2.2 +- 0.1 *)
  left : float * float * float;  (* Sod (rho, u, p) left of the diaphragm *)
  right : float * float * float;  (* and right of it *)
}

let solver ~seed =
  let st = rng ~seed 1 in
  let mach = around st 2.2 0.1 in
  let rho_l = around st 1. 0.05 in
  let p_l = around st 1. 0.05 in
  let rho_r = around st 0.125 0.0125 in
  let p_r = around st 0.1 0.01 in
  { mach; left = (rho_l, 0., p_l); right = (rho_r, 0., p_r) }

(* The Sod tube of [nx] cells with the generated states. *)
let sod_problem input ~nx =
  let p = Euler.Setup.sod ~nx () in
  let rho_l, u_l, p_l = input.left and rho_r, u_r, p_r = input.right in
  Euler.State.init_primitive p.Euler.Setup.state (fun ~x ~y:_ ->
      if x < 0.5 then (rho_l, u_l, 0., p_l) else (rho_r, u_r, 0., p_r));
  p

(* Fleet jobs.  Each block of [block] consecutive arrivals holds every
   kind in fixed proportion, shuffled; so the seed moves the order and
   the arrival times but not the mix's composition. *)
type kind = Pc_tube | Weno_tube | Vm_tube | Quadrant | Quadrant_tiled

let kind_name = function
  | Pc_tube -> "pc-tube"
  | Weno_tube -> "weno-tube"
  | Vm_tube -> "vm-tube"
  | Quadrant -> "quadrant"
  | Quadrant_tiled -> "quadrant-tiled"

(* Four fifths light jobs at about 0.3 ms/step, one fifth sacprog tubes
   at about 1 ms/step that also compile the program on every slice.  So
   the median of each per-job figure falls well inside the light jobs'
   cluster and p90 in the middle of the sacprog tubes', never on the
   edge between two kinds. *)
let block =
  List.concat
    [ List.init 8 (fun _ -> Pc_tube); List.init 6 (fun _ -> Weno_tube);
      List.init 4 (fun _ -> Vm_tube); [ Quadrant; Quadrant_tiled ] ]

let kinds = List.sort_uniq compare block

(* Every kind takes the same 40 steps, two preemption slices. *)
let steps = 40
let submitters = [| "ana"; "ben"; "cy" |]

let job ~id ~submitter kind =
  let open Euler in
  let target = Fleet.Job.Steps steps in
  match kind with
  | Pc_tube -> Fleet.Job.make ~id ~submitter ~scenario:"sod" ~nx:600 target
  | Weno_tube ->
    Fleet.Job.make ~id ~submitter ~scenario:"sod" ~nx:200 ~recon:Recon.Weno3
      ~riemann:Riemann.Hllc target
  | Vm_tube ->
    Fleet.Job.make ~id ~submitter ~backend:"sacprog" ~scenario:"sod" ~nx:450
      target
  | Quadrant -> Fleet.Job.make ~id ~submitter ~scenario:"quadrant" ~nx:29 target
  | Quadrant_tiled ->
    Fleet.Job.make ~id ~submitter ~scenario:"quadrant" ~nx:29 ~tiles:(2, 2)
      target

type arrival = { due_s : float; job : Fleet.Job.t; kind : kind }

(* [jobs] arrivals of a Poisson process at [rate] jobs/s, due times
   relative to the start of the run. *)
let fleet ~seed ~rate ~jobs ~prefix =
  let st = rng ~seed 2 in
  let blk = Array.of_list block in
  let nb = Array.length blk in
  let order = Array.make jobs Pc_tube in
  let i = ref 0 in
  while !i < jobs do
    let b = Array.copy blk in
    for k = nb - 1 downto 1 do
      let j = Random.State.int st (k + 1) in
      let t = b.(k) in
      b.(k) <- b.(j);
      b.(j) <- t
    done;
    Array.iter (fun k -> if !i < jobs then (order.(!i) <- k; incr i)) b
  done;
  let due = ref 0. in
  List.init jobs (fun n ->
      due := !due -. (log (1. -. Random.State.float st 1.) /. rate);
      let submitter =
        submitters.(Random.State.int st (Array.length submitters))
      in
      let kind = order.(n) in
      { due_s = !due;
        kind;
        job = job ~id:(Printf.sprintf "%s%04d" prefix n) ~submitter kind })
