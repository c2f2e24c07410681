(* Tests for the parallel runtime: chunking, the worker team under the
   SPMD and fork/join schedulers, and the scaling cost model.  Lane
   counts stay small so the suite runs on one or two cores. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Chunk                                                               *)
(* ------------------------------------------------------------------ *)

let test_chunk_cover () =
  let ranges = Parallel.Chunk.split ~lo:3 ~hi:20 ~parts:5 in
  check_int "count" 5 (Array.length ranges);
  check_int "first lo" 3 ranges.(0).Parallel.Chunk.lo;
  check_int "last hi" 20 ranges.(4).Parallel.Chunk.hi;
  (* Contiguous cover. *)
  for i = 0 to 3 do
    check_int "contiguous" ranges.(i).Parallel.Chunk.hi
      ranges.(i + 1).Parallel.Chunk.lo
  done;
  (* Balanced: sizes differ by at most one. *)
  let sizes = Array.map Parallel.Chunk.length ranges in
  let mn = Array.fold_left min max_int sizes
  and mx = Array.fold_left max min_int sizes in
  check_bool "balanced" true (mx - mn <= 1)

let test_chunk_more_parts_than_work () =
  let ranges = Parallel.Chunk.split ~lo:0 ~hi:2 ~parts:4 in
  let total = Array.fold_left (fun a r -> a + Parallel.Chunk.length r) 0 ranges in
  check_int "total" 2 total

let test_chunk_empty () =
  let ranges = Parallel.Chunk.split ~lo:5 ~hi:5 ~parts:3 in
  Array.iter (fun r -> check_int "empty" 0 (Parallel.Chunk.length r)) ranges

let test_chunk_of_matches_split () =
  let lo = 1 and hi = 103 and parts = 7 in
  let ranges = Parallel.Chunk.split ~lo ~hi ~parts in
  for which = 0 to parts - 1 do
    let r = Parallel.Chunk.chunk_of ~lo ~hi ~parts ~which in
    check_int "lo" ranges.(which).Parallel.Chunk.lo r.Parallel.Chunk.lo;
    check_int "hi" ranges.(which).Parallel.Chunk.hi r.Parallel.Chunk.hi
  done

let test_chunk_invalid () =
  check_bool "parts=0 raises" true
    (try
       ignore (Parallel.Chunk.split ~lo:0 ~hi:4 ~parts:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* SPMD scheduling on the team                                         *)
(* ------------------------------------------------------------------ *)

(* The "pool" group pins SPMD scheduling and the "fork_join" group
   per-loop fork/join; both run on [Parallel.Team]. *)

let test_spmd_parallel_for () =
  let sched = Parallel.Exec.spmd ~lanes:4 in
  let n = 10_000 in
  let a = Array.make n 0 in
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:n (fun i -> a.(i) <- i);
  let sum = Array.fold_left ( + ) 0 a in
  check_int "sum 0..n-1" (n * (n - 1) / 2) sum

let test_spmd_lane_ids () =
  let seen = Array.init 3 (fun _ -> Atomic.make false) in
  Parallel.Team.run ~parts:3 (fun lane -> Atomic.set seen.(lane) true);
  Array.iteri
    (fun i s -> check_bool (Printf.sprintf "lane %d ran" i) true (Atomic.get s))
    seen

let test_spmd_many_regions () =
  (* Reuse of resident workers across many regions is the whole point
     of the team; make sure repeated regions stay correct. *)
  let sched = Parallel.Exec.spmd ~lanes:2 in
  let acc = Array.make 100 0 in
  for round = 1 to 50 do
    Parallel.Exec.parallel_for sched ~lo:0 ~hi:100 (fun i ->
        acc.(i) <- acc.(i) + round)
  done;
  let expected = 50 * 51 / 2 in
  Array.iteri
    (fun i v -> check_int (Printf.sprintf "acc(%d)" i) expected v)
    acc;
  check_int "regions" 50 (Parallel.Exec.regions sched)

let test_spmd_single_lane () =
  let sched = Parallel.Exec.spmd ~lanes:1 in
  let hits = ref 0 in
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 (fun _ -> incr hits);
  check_int "all iterations" 10 !hits

let test_spmd_dynamic_schedule () =
  (* Dynamic self-scheduling covers the range exactly once, like
     static (the paper's OMP_SCHEDULE experiment: "negligible
     difference" beyond distribution policy). *)
  let sched = Parallel.Exec.spmd ~lanes:3 in
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Parallel.Exec.parallel_for ~schedule:(Parallel.Chunk.Dynamic 7) sched
    ~lo:0 ~hi:n (fun i -> Atomic.incr hits.(i));
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "cell %d once" i) 1 (Atomic.get c))
    hits

let test_schedule_parsing () =
  check_bool "static" true
    (Parallel.Chunk.schedule_of_string "static" = Some Parallel.Chunk.Static);
  check_bool "dynamic default" true
    (Parallel.Chunk.schedule_of_string "dynamic"
     = Some (Parallel.Chunk.Dynamic 16));
  check_bool "dynamic sized" true
    (Parallel.Chunk.schedule_of_string "dynamic:4"
     = Some (Parallel.Chunk.Dynamic 4));
  check_bool "junk" true (Parallel.Chunk.schedule_of_string "guided" = None);
  Alcotest.(check string) "name" "dynamic:4"
    (Parallel.Chunk.schedule_name (Parallel.Chunk.Dynamic 4))

let test_exec_dynamic_matches_static () =
  let run schedule =
    let sched = Parallel.Exec.spmd ~lanes:2 in
    let a = Array.make 500 0. in
    Parallel.Exec.parallel_for ?schedule sched ~lo:0 ~hi:500 (fun i ->
        a.(i) <- Float.sqrt (float_of_int i));
    a
  in
  let s = run None
  and d = run (Some (Parallel.Chunk.Dynamic 13)) in
  Alcotest.(check (array (float 0.))) "identical results" s d

exception Boom of int

let test_spmd_exception_propagates () =
  let sched = Parallel.Exec.spmd ~lanes:2 in
  (* Static chunking over [0,100) with 2 lanes puts i=75 on lane 1
     (a team worker) and i=10 on lane 0 (the caller); the join must
     complete and the exception re-raise in the caller in both
     cases. *)
  List.iter
    (fun bad ->
      let raised =
        try
          Parallel.Exec.parallel_for sched ~lo:0 ~hi:100 (fun i ->
              if i = bad then raise (Boom i));
          false
        with Boom i -> i = bad
      in
      check_bool (Printf.sprintf "Boom %d re-raised" bad) true raised)
    [ 75; 10 ];
  (* A failed region must not poison the team. *)
  let hits = Atomic.make 0 in
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 (fun _ -> Atomic.incr hits);
  check_int "team usable afterwards" 10 (Atomic.get hits)

let test_spmd_run_phases_barrier () =
  (* Phase k+1 reads what *other* lanes wrote in phase k, so any
     missing or broken in-region barrier shows up as a wrong sum.
     Repeat regions to exercise the sense reset between them. *)
  for round = 1 to 4 do
    let a = Array.make 3 0 in
    let sums = Array.make 3 0 in
    Parallel.Team.run_phases ~parts:3 ~phases:2 (fun ~phase ~lane ->
        if phase = 0 then a.(lane) <- (10 * round) + lane
        else sums.(lane) <- a.(0) + a.(1) + a.(2));
    let expected = (30 * round) + 3 in
    Array.iteri
      (fun l s ->
        check_int (Printf.sprintf "round %d lane %d sum" round l) expected s)
      sums
  done

let test_spmd_run_phases_on_phase () =
  let seen = ref [] in
  Parallel.Team.run_phases ~parts:2 ~phases:3
    ~on_phase:(fun k -> seen := k :: !seen)
    (fun ~phase:_ ~lane:_ -> ());
  Alcotest.(check (list int)) "hook ran once per phase" [ 2; 1; 0 ] !seen;
  (* Zero phases: nothing runs, nothing hangs. *)
  Parallel.Team.run_phases ~parts:2 ~phases:0
    ~on_phase:(fun _ -> Alcotest.fail "hook on empty region")
    (fun ~phase:_ ~lane:_ -> Alcotest.fail "body on empty region")

let test_spmd_run_phases_exception () =
  (* A lane raising mid-sequence must still attend every remaining
     barrier; the first exception resurfaces at the join and the team
     stays usable. *)
  let raised =
    try
      Parallel.Team.run_phases ~parts:2 ~phases:3 (fun ~phase ~lane ->
          if phase = 1 && lane = 1 then raise (Boom phase));
      false
    with Boom 1 -> true
  in
  check_bool "exception from middle phase re-raised" true raised;
  let hits = Atomic.make 0 in
  Parallel.Team.run_phases ~parts:2 ~phases:2 (fun ~phase:_ ~lane:_ ->
      Atomic.incr hits);
  check_int "team usable afterwards" 4 (Atomic.get hits)

let test_spmd_stop_idempotent () =
  (* Shutdown is a no-op: calling it twice, or right after a region
     that re-raised a worker exception, neither hangs nor stops the
     exec from running further regions. *)
  let sched = Parallel.Exec.spmd ~lanes:2 in
  (try
     Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 (fun i ->
         if i >= 5 then raise (Boom i))
   with Boom _ -> ());
  Parallel.Exec.shutdown sched;
  Parallel.Exec.shutdown sched;
  let hits = Atomic.make 0 in
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 (fun _ -> Atomic.incr hits);
  check_int "exec usable after shutdown" 10 (Atomic.get hits)

(* ------------------------------------------------------------------ *)
(* Fork/join scheduling on the team                                    *)
(* ------------------------------------------------------------------ *)

let test_fork_join_correct () =
  let n = 5_000 in
  let a = Array.make n 0 in
  Parallel.Exec.parallel_for (Parallel.Exec.fork_join ~lanes:3) ~lo:0 ~hi:n
    (fun i -> a.(i) <- 2 * i);
  let sum = Array.fold_left ( + ) 0 a in
  check_int "sum" (n * (n - 1)) sum

let test_fork_join_region_count () =
  let sched = Parallel.Exec.fork_join ~lanes:2 in
  for _ = 1 to 7 do
    Parallel.Exec.parallel_for sched ~lo:0 ~hi:4 ignore
  done;
  (* Empty ranges do not count. *)
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:0 ignore;
  check_int "regions" 7 (Parallel.Exec.regions sched)

(* Run one region over [0, n) and check every index ran exactly once,
   on a lane inside the team clamped to the iteration count. *)
let check_region_cover label sched n =
  let lanes = Parallel.Exec.lanes sched in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let bad_lane = Atomic.make (-1) in
  Parallel.Exec.parallel_for_lanes sched ~lo:0 ~hi:n (fun ~lane i ->
      if lane < 0 || lane >= min lanes n then Atomic.set bad_lane lane;
      Atomic.incr hits.(i));
  check_int (label ^ ": lane ids in range") (-1) (Atomic.get bad_lane);
  Array.iteri
    (fun i h -> check_int (Printf.sprintf "%s: index %d" label i) 1
        (Atomic.get h))
    hits

let test_fork_join_exception () =
  let sched = Parallel.Exec.fork_join ~lanes:2 in
  (* i = 75 lands on worker lane 1, i = 10 on the caller's chunk. *)
  List.iter
    (fun bad ->
      let raised =
        try
          Parallel.Exec.parallel_for sched ~lo:0 ~hi:100 (fun i ->
              if i = bad then raise (Boom i));
          false
        with Boom i -> i = bad
      in
      check_bool (Printf.sprintf "Boom %d re-raised" bad) true raised;
      check_region_cover (Printf.sprintf "after Boom %d" bad) sched 100)
    [ 75; 10 ]

let test_fork_join_nested_inline () =
  (* The team is busy running the outer region, so every inner region
     runs inline on the domain that issued it. *)
  let outer = Parallel.Exec.fork_join ~lanes:2 in
  let inner = Parallel.Exec.fork_join ~lanes:2 in
  let inner_hits = Array.init 6 (fun _ -> Atomic.make 0) in
  let off_domain = Atomic.make 0 in
  Parallel.Exec.parallel_for outer ~lo:0 ~hi:6 (fun o ->
      let self = Domain.self () in
      Parallel.Exec.parallel_for inner ~lo:0 ~hi:10 (fun _ ->
          Atomic.incr inner_hits.(o);
          if Domain.self () <> self then Atomic.incr off_domain));
  Array.iteri
    (fun o h ->
      check_int (Printf.sprintf "inner region %d ran every index" o) 10
        (Atomic.get h))
    inner_hits;
  check_int "inner regions ran inline" 0 (Atomic.get off_domain)

let test_fork_join_varying_lanes () =
  (* Lane counts shrinking and growing back to back: a worker must not
     run a region it is not part of, nor one region twice. *)
  let scheds =
    List.map (fun lanes -> Parallel.Exec.fork_join ~lanes) [ 3; 2; 8; 2 ]
  in
  for round = 1 to 50 do
    List.iter
      (fun sched ->
        check_region_cover
          (Printf.sprintf "round %d, %s" round (Parallel.Exec.describe sched))
          sched 37)
      scheds
  done

let test_fork_join_team_bounded () =
  (* Execs are never shut down; the team is shared and only grows to
     the largest request (8 lanes in this suite). *)
  for _ = 1 to 200 do
    let ex = Parallel.Exec.fork_join ~lanes:2 in
    Parallel.Exec.parallel_for ex ~lo:0 ~hi:4 ignore
  done;
  let d = Parallel.Team.domains () in
  check_bool (Printf.sprintf "team has %d domains" d) true (d >= 1 && d <= 7)

(* ------------------------------------------------------------------ *)
(* Team shared by both schedulers                                      *)
(* ------------------------------------------------------------------ *)

let test_team_spmd_no_leak () =
  (* SPMD execs are never shut down either: 200 of them must reuse the
     shared team rather than each keep domains of its own (OCaml caps
     a process at 128 domains). *)
  for _ = 1 to 200 do
    let ex = Parallel.Exec.spmd ~lanes:2 in
    Parallel.Exec.parallel_for ex ~lo:0 ~hi:4 ignore
  done;
  let d = Parallel.Team.domains () in
  check_bool (Printf.sprintf "team has %d domains" d) true (d >= 1 && d <= 7)

let two_phases n a b =
  [| { Parallel.Exec.region = Parallel.Exec.Rhs;
       lo = 0;
       hi = n;
       body = (fun ~lane:_ i -> a.(i) <- float_of_int (i * i)) };
     { Parallel.Exec.region = Parallel.Exec.Rk_combine;
       lo = 0;
       hi = n;
       body = (fun ~lane:_ i -> b.(i) <- a.(i) +. a.(n - 1 - i)) } |]

let test_team_nested_phases () =
  (* An SPMD phase sequence issued from inside a fork/join region finds
     the team busy: it runs inline and still honours the barrier. *)
  let n = 50 in
  let expected =
    let a = Array.make n 0. and b = Array.make n 0. in
    Parallel.Exec.parallel_phases (Parallel.Exec.sequential ())
      (two_phases n a b);
    b
  in
  let outer = Parallel.Exec.fork_join ~lanes:2 in
  let results = Array.init 4 (fun _ -> Array.make n 0.) in
  Parallel.Exec.parallel_for outer ~lo:0 ~hi:4 (fun o ->
      let a = Array.make n 0. in
      Parallel.Exec.parallel_phases (Parallel.Exec.spmd ~lanes:3)
        (two_phases n a results.(o)));
  Array.iteri
    (fun o b ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "nested region %d matches sequential" o)
        expected b)
    results

let test_team_barrier_parks () =
  (* One lane per phase outlasts the spin budget, so the other lanes
     park at the barrier; the last arriver must wake them, whichever
     lane (caller or worker) it is. *)
  for slow = 0 to 2 do
    let a = Array.make 3 0 in
    let sums = Array.make 3 0 in
    Parallel.Team.run_phases ~parts:3 ~phases:3 (fun ~phase ~lane ->
        if lane = (slow + phase) mod 3 then Unix.sleepf 0.002;
        if phase = 0 then a.(lane) <- lane + 1
        else if phase = 1 then sums.(lane) <- a.(0) + a.(1) + a.(2)
        else a.(lane) <- sums.((lane + 1) mod 3));
    Alcotest.(check (array int)) (Printf.sprintf "slow lane %d" slow)
      [| 6; 6; 6 |] a
  done

let test_team_interleaving () =
  (* Regions of different schedulers and lane counts back to back on
     the one team. *)
  let scheds =
    [ Parallel.Exec.spmd ~lanes:3;
      Parallel.Exec.fork_join ~lanes:2;
      Parallel.Exec.spmd ~lanes:2 ]
  in
  for round = 1 to 20 do
    List.iter
      (fun sched ->
        check_region_cover
          (Printf.sprintf "round %d, %s" round (Parallel.Exec.describe sched))
          sched 41)
      scheds
  done

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)
(* ------------------------------------------------------------------ *)

let exec_kinds () =
  [ ("sequential", Parallel.Exec.sequential ());
    ("spmd", Parallel.Exec.spmd ~lanes:2);
    ("fork-join", Parallel.Exec.fork_join ~lanes:2) ]

let test_exec_parallel_for () =
  List.iter
    (fun (name, sched) ->
      let a = Array.make 1000 0. in
      Parallel.Exec.parallel_for sched ~lo:0 ~hi:1000 (fun i ->
          a.(i) <- float_of_int i);
      check_float (name ^ " sum") 499500. (Array.fold_left ( +. ) 0. a))
    (exec_kinds ())

(* Parallel maximum of [f i] over the range, folded into the lane
   slots of {!Parallel.Exec.parallel_reduce_lanes}. *)
let reduce_max exec ~lo ~hi f =
  Parallel.Exec.parallel_reduce_lanes exec ~lo ~hi ~init:Float.neg_infinity
    ~combine:Float.max (fun ~acc ~cell ~lane:_ i ->
      let v = f i in
      if v > acc.(cell) then acc.(cell) <- v)

let test_exec_reduce_max () =
  List.iter
    (fun (name, sched) ->
      (* max of i*(100-i) over [0,100) is at i=50. *)
      let v =
        reduce_max sched ~lo:0 ~hi:100 (fun i ->
            float_of_int (i * (100 - i)))
      in
      check_float (name ^ " argmax value") 2500. v;
      let empty =
        reduce_max sched ~lo:5 ~hi:5 (fun _ -> 1.)
      in
      check_bool (name ^ " empty") true (empty = Float.neg_infinity))
    (exec_kinds ())

let test_exec_region_counting () =
  let sched = Parallel.Exec.sequential () in
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 ignore;
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:10 ignore;
  ignore (reduce_max sched ~lo:0 ~hi:4 float_of_int);
  check_int "three regions" 3 (Parallel.Exec.regions sched);
  Parallel.Exec.reset_regions sched;
  check_int "reset" 0 (Parallel.Exec.regions sched);
  (* Empty region does not count. *)
  Parallel.Exec.parallel_for sched ~lo:0 ~hi:0 ignore;
  check_int "empty not counted" 0 (Parallel.Exec.regions sched)

let test_exec_for_lanes_cover () =
  (* Every index in the range runs exactly once and sees a lane id in
     [0, lanes), under both schedules, on every scheduler. *)
  List.iter
    (fun (name, sched) ->
      List.iter
        (fun (sname, schedule) ->
          let n = 500 in
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          let lanes = Parallel.Exec.lanes sched in
          let bad_lane = Atomic.make false in
          Parallel.Exec.parallel_for_lanes ?schedule sched ~lo:0 ~hi:n
            (fun ~lane i ->
              if lane < 0 || lane >= lanes then Atomic.set bad_lane true;
              Atomic.incr hits.(i));
          Array.iteri
            (fun i c ->
              check_int
                (Printf.sprintf "%s/%s idx %d once" name sname i)
                1 (Atomic.get c))
            hits;
          check_bool
            (Printf.sprintf "%s/%s lane ids in range" name sname)
            false (Atomic.get bad_lane))
        [ ("static", None); ("dynamic", Some (Parallel.Chunk.Dynamic 7)) ])
    (exec_kinds ())

let test_exec_for_lanes_edges () =
  (* More lanes than iterations, and an empty range. *)
  List.iter
    (fun (name, sched) ->
      let hits = Array.init 2 (fun _ -> Atomic.make 0) in
      Parallel.Exec.parallel_for_lanes sched ~lo:0 ~hi:2 (fun ~lane:_ i ->
          Atomic.incr hits.(i));
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "%s short idx %d" name i) 1
            (Atomic.get c))
        hits;
      let ran = Atomic.make false in
      Parallel.Exec.parallel_for_lanes sched ~lo:5 ~hi:5 (fun ~lane:_ _ ->
          Atomic.set ran true);
      check_bool (name ^ " empty range runs nothing") false (Atomic.get ran))
    [ ("sequential", Parallel.Exec.sequential ());
      ("spmd", Parallel.Exec.spmd ~lanes:3);
      ("fork-join", Parallel.Exec.fork_join ~lanes:3) ]

let test_exec_bucket_words () =
  let sched = Parallel.Exec.sequential () in
  Parallel.Exec.parallel_for ~region:Parallel.Exec.Rhs sched ~lo:0 ~hi:100
    (fun i -> ignore (Sys.opaque_identity (Array.make 64 (float_of_int i))));
  (match List.assoc_opt Parallel.Exec.Rhs (Parallel.Exec.buckets sched) with
   | None -> Alcotest.fail "rhs bucket missing"
   | Some b ->
     check_int "one region" 1 b.Parallel.Exec.count;
     check_bool "allocation attributed to the bucket" true
       (b.Parallel.Exec.minor_words > 0.));
  Parallel.Exec.reset_buckets sched;
  check_bool "buckets reset" true (Parallel.Exec.buckets sched = [])

let test_exec_parallel_phases () =
  (* Two dependent phases (phase 1 reads across phase 0's whole output)
     must produce the same values on every scheduler, and region
     accounting must reflect the folding: one dispatch under
     sequential/spmd, one region per phase under fork/join. *)
  let n = 200 in
  let expected = Array.init n (fun i -> float_of_int (i + (n - 1 - i))) in
  List.iter
    (fun (name, sched) ->
      let a = Array.make n 0. and b = Array.make n 0. in
      let r0 = Parallel.Exec.regions sched in
      Parallel.Exec.parallel_phases sched
        [| { Parallel.Exec.region = Parallel.Exec.Rhs;
             lo = 0;
             hi = n;
             body = (fun ~lane:_ i -> a.(i) <- float_of_int i) };
           { Parallel.Exec.region = Parallel.Exec.Rk_combine;
             lo = 0;
             hi = n;
             body = (fun ~lane:_ i -> b.(i) <- a.(i) +. a.(n - 1 - i)) } |];
      Alcotest.(check (array (float 0.))) (name ^ " phase values") expected b;
      let folded =
        match name with "fork-join" -> 2 | _ -> 1
      in
      check_int (name ^ " regions for one dispatch") (r0 + folded)
        (Parallel.Exec.regions sched);
      (* Empty phase array and empty ranges cost nothing. *)
      Parallel.Exec.parallel_phases sched [||];
      Parallel.Exec.parallel_phases sched
        [| { Parallel.Exec.region = Parallel.Exec.Other;
             lo = 5;
             hi = 5;
             body = (fun ~lane:_ _ -> Alcotest.fail "empty phase ran") } |];
      check_int (name ^ " empty dispatches")
        (r0 + folded
        + match name with "fork-join" -> 0 | _ -> 1)
        (Parallel.Exec.regions sched))
    (exec_kinds ())

let test_exec_phase_attribution () =
  (* Each phase is charged to its own region bucket, once per dispatch,
     and the per-phase buckets cannot exceed the dispatch wall time
     observed from outside. *)
  List.iter
    (fun (name, sched) ->
      Parallel.Exec.reset_buckets sched;
      let n = 5_000 in
      let a = Array.make n 0. in
      let t0 = Parallel.Clock.now_ns () in
      Parallel.Exec.parallel_phases sched
        [| { Parallel.Exec.region = Parallel.Exec.Rhs;
             lo = 0;
             hi = n;
             body = (fun ~lane:_ i -> a.(i) <- Float.sqrt (float_of_int i)) };
           { Parallel.Exec.region = Parallel.Exec.Rk_combine;
             lo = 0;
             hi = n;
             body = (fun ~lane:_ i -> a.(i) <- a.(i) *. 2.) } |];
      let wall = Parallel.Clock.now_ns () -. t0 in
      let bucket r =
        match List.assoc_opt r (Parallel.Exec.buckets sched) with
        | Some b -> b
        | None ->
          Alcotest.failf "%s: missing bucket %s" name
            (Parallel.Exec.region_name r)
      in
      let rhs = bucket Parallel.Exec.Rhs
      and rk = bucket Parallel.Exec.Rk_combine in
      check_int (name ^ " rhs charged once") 1 rhs.Parallel.Exec.count;
      check_int (name ^ " rk charged once") 1 rk.Parallel.Exec.count;
      check_bool (name ^ " phase times non-negative") true
        (rhs.Parallel.Exec.total_ns >= 0. && rk.Parallel.Exec.total_ns >= 0.);
      check_bool (name ^ " phase buckets sum to <= dispatch wall") true
        (rhs.Parallel.Exec.total_ns +. rk.Parallel.Exec.total_ns
         <= wall +. 1e5))
    (exec_kinds ())

let test_exec_reduce_lanes () =
  List.iter
    (fun (name, sched) ->
      (* Max via per-lane slots is exact under every scheduler (max
         is order-independent). *)
      let f i = float_of_int (i * (100 - i)) in
      let via_slots =
        Parallel.Exec.parallel_reduce_lanes sched ~lo:0 ~hi:100
          ~init:Float.neg_infinity ~combine:Float.max
          (fun ~acc ~cell ~lane:_ i ->
            if f i > acc.(cell) then acc.(cell) <- f i)
      in
      check_float (name ^ " max via lanes") 2500. via_slots;
      (* A sum reduction exercises [combine] over the per-lane
         partials (small integers: float addition is exact). *)
      let sum =
        Parallel.Exec.parallel_reduce_lanes sched ~lo:0 ~hi:1000 ~init:0.
          ~combine:( +. )
          (fun ~acc ~cell ~lane:_ i ->
            acc.(cell) <- acc.(cell) +. float_of_int i)
      in
      check_float (name ^ " sum via lanes") 499500. sum;
      (* Empty range returns init without opening a region. *)
      let r0 = Parallel.Exec.regions sched in
      check_float (name ^ " empty returns init") 42.
        (Parallel.Exec.parallel_reduce_lanes sched ~lo:7 ~hi:7 ~init:42.
           ~combine:( +. )
           (fun ~acc:_ ~cell:_ ~lane:_ _ -> Alcotest.fail "body ran"));
      check_int (name ^ " empty opens no region") r0
        (Parallel.Exec.regions sched))
    (exec_kinds ())

(* ------------------------------------------------------------------ *)
(* Workspace and Clock                                                 *)
(* ------------------------------------------------------------------ *)

let test_workspace_reuse () =
  let ws = Parallel.Workspace.create ~lanes:2 () in
  let a = Parallel.Workspace.buffer ws ~lane:0 ~slot:3 100 in
  check_bool "length >= n" true (Array.length a >= 100);
  let b = Parallel.Workspace.buffer ws ~lane:0 ~slot:3 80 in
  check_bool "same array back" true (a == b);
  let c = Parallel.Workspace.buffer ws ~lane:1 ~slot:3 10 in
  check_bool "lanes independent" true (not (c == a));
  check_int "lanes" 2 (Parallel.Workspace.lanes ws)

let test_workspace_growth () =
  let ws = Parallel.Workspace.create ~lanes:1 () in
  let g0 = Parallel.Workspace.growths ws in
  let a = Parallel.Workspace.buffer ws ~lane:0 ~slot:0 10 in
  check_int "first touch grows" (g0 + 1) (Parallel.Workspace.growths ws);
  let b =
    Parallel.Workspace.buffer ws ~lane:0 ~slot:0 (Array.length a + 1)
  in
  check_bool "grown" true (Array.length b > Array.length a);
  check_int "second growth" (g0 + 2) (Parallel.Workspace.growths ws);
  ignore (Parallel.Workspace.buffer ws ~lane:0 ~slot:0 5);
  check_int "steady state allocates nothing" (g0 + 2)
    (Parallel.Workspace.growths ws)

let test_workspace_invalid () =
  let ws = Parallel.Workspace.create ~lanes:2 ~slots:4 () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  check_bool "bad lane" true
    (raises (fun () ->
         ignore (Parallel.Workspace.buffer ws ~lane:2 ~slot:0 1)));
  check_bool "bad slot" true
    (raises (fun () ->
         ignore (Parallel.Workspace.buffer ws ~lane:0 ~slot:4 1)));
  check_bool "bad n" true
    (raises (fun () ->
         ignore (Parallel.Workspace.buffer ws ~lane:0 ~slot:0 (-1))));
  check_bool "bad lanes" true
    (raises (fun () -> ignore (Parallel.Workspace.create ~lanes:0 ())))

let test_exec_workspace_sized () =
  List.iter
    (fun (name, sched) ->
      check_int (name ^ " workspace lanes")
        (Parallel.Exec.lanes sched)
        (Parallel.Workspace.lanes (Parallel.Exec.workspace sched)))
    (exec_kinds ())

let test_clock_monotonic () =
  let t0 = Parallel.Clock.now_ns () in
  let t1 = Parallel.Clock.now_ns () in
  check_bool "positive" true (t0 > 0.);
  check_bool "non-decreasing" true (t1 >= t0);
  let s0 = Parallel.Clock.now_s () in
  let s1 = Parallel.Clock.now_s () in
  check_bool "seconds non-decreasing" true (s1 >= s0);
  check_bool "seconds agree with ns" true
    (Float.abs ((Parallel.Clock.now_ns () *. 1e-9) -. s1) < 1.)

let test_exec_describe () =
  Alcotest.(check string) "seq" "sequential"
    (Parallel.Exec.describe (Parallel.Exec.sequential ()));
  let s = Parallel.Exec.spmd ~lanes:2 in
  Alcotest.(check string) "spmd" "spmd(2)" (Parallel.Exec.describe s);
  Alcotest.(check string) "fj" "fork-join(3)"
    (Parallel.Exec.describe (Parallel.Exec.fork_join ~lanes:3))

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let sample_sac =
  (* Few fused regions per step, SaC-style. *)
  { Parallel.Cost_model.serial_s = 0.001;
    parallel_s = 0.10;
    regions_per_step = 12. }

let sample_fortran =
  (* Inner-loop auto-parallelisation: one region per row per loop
     nest, thousands per step. *)
  { Parallel.Cost_model.serial_s = 0.001;
    parallel_s = 0.07;
    regions_per_step = 12_000. }

let p = Parallel.Cost_model.default

let test_model_one_core_no_overhead () =
  let t =
    Parallel.Cost_model.predict_step p Parallel.Cost_model.Spin_barrier
      sample_sac ~cores:1
  in
  check_float "1 core = serial + parallel" 0.101 t

let test_model_spin_scales () =
  let t1 =
    Parallel.Cost_model.predict_step p Spin_barrier sample_sac ~cores:1
  and t8 =
    Parallel.Cost_model.predict_step p Spin_barrier sample_sac ~cores:8
  and t16 =
    Parallel.Cost_model.predict_step p Spin_barrier sample_sac ~cores:16
  in
  check_bool "8 cores faster" true (t8 < t1 /. 4.);
  check_bool "16 cores not slower than 8" true (t16 <= t8 *. 1.05)

let test_model_fork_join_degrades () =
  (* With many tiny regions, fork/join overhead eventually dominates:
     the paper's Fortran curve degrades beyond a few cores. *)
  let t cores =
    Parallel.Cost_model.predict_step p Os_fork_join
      { sample_fortran with parallel_s = 0.04 }
      ~cores
  in
  check_bool "more cores eventually slower" true (t 16 > t 2)

let test_model_speedup_monotone_small () =
  let s2 = Parallel.Cost_model.speedup p Spin_barrier sample_sac ~cores:2
  and s4 = Parallel.Cost_model.speedup p Spin_barrier sample_sac ~cores:4 in
  check_bool "s2 > 1" true (s2 > 1.5);
  check_bool "s4 > s2" true (s4 > s2)

let test_model_crossover () =
  (* SaC slower sequentially but scalable; Fortran fast at 1 core but
     burdened with fork/join overhead: a crossover must exist. *)
  let sac = { sample_sac with parallel_s = 0.2 } in
  let fortran = { sample_fortran with parallel_s = 0.05 } in
  match
    Parallel.Cost_model.crossover p
      ~fast_serial:(Parallel.Cost_model.Os_fork_join, fortran)
      ~scalable:(Parallel.Cost_model.Spin_barrier, sac)
      ~max_cores:16
  with
  | None -> Alcotest.fail "expected a crossover"
  | Some c ->
    check_bool "crossover beyond 1 core" true (c > 1);
    check_bool "crossover within 16" true (c <= 16)

let test_model_bandwidth_cap () =
  let uncapped = { p with Parallel.Cost_model.bandwidth_cap = 1000. } in
  let t16_capped =
    Parallel.Cost_model.predict_step p Spin_barrier sample_sac ~cores:16
  and t16_free =
    Parallel.Cost_model.predict_step uncapped Spin_barrier sample_sac
      ~cores:16
  in
  check_bool "cap slows the 16-core run" true (t16_capped > t16_free)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_chunks_partition =
  QCheck2.Test.make ~name:"chunks partition the range" ~count:300
    QCheck2.Gen.(
      let* lo = int_range 0 50 in
      let* len = int_range 0 200 in
      let* parts = int_range 1 17 in
      return (lo, lo + len, parts))
    (fun (lo, hi, parts) ->
      let ranges = Parallel.Chunk.split ~lo ~hi ~parts in
      let total =
        Array.fold_left (fun a r -> a + Parallel.Chunk.length r) 0 ranges
      in
      let contiguous = ref (ranges.(0).Parallel.Chunk.lo = lo) in
      for i = 0 to parts - 2 do
        if ranges.(i).Parallel.Chunk.hi <> ranges.(i + 1).Parallel.Chunk.lo
        then contiguous := false
      done;
      total = hi - lo
      && !contiguous
      && ranges.(parts - 1).Parallel.Chunk.hi = hi)

let prop_model_overhead_monotone =
  QCheck2.Test.make ~name:"overhead grows with cores" ~count:100
    QCheck2.Gen.(int_range 2 64)
    (fun cores ->
      let open Parallel.Cost_model in
      overhead_per_region p Os_fork_join ~cores
      >= overhead_per_region p Os_fork_join ~cores:(cores - 1)
      && overhead_per_region p Spin_barrier ~cores
         < overhead_per_region p Os_fork_join ~cores)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_chunks_partition; prop_model_overhead_monotone ]

let () =
  Alcotest.run "parallel"
    [ ( "chunk",
        [ Alcotest.test_case "cover" `Quick test_chunk_cover;
          Alcotest.test_case "more parts than work" `Quick
            test_chunk_more_parts_than_work;
          Alcotest.test_case "empty" `Quick test_chunk_empty;
          Alcotest.test_case "chunk_of matches split" `Quick
            test_chunk_of_matches_split;
          Alcotest.test_case "invalid" `Quick test_chunk_invalid ] );
      ( "pool",
        [ Alcotest.test_case "parallel_for" `Quick test_spmd_parallel_for;
          Alcotest.test_case "lane ids" `Quick test_spmd_lane_ids;
          Alcotest.test_case "many regions" `Quick test_spmd_many_regions;
          Alcotest.test_case "single lane" `Quick test_spmd_single_lane;
          Alcotest.test_case "dynamic schedule" `Quick
            test_spmd_dynamic_schedule;
          Alcotest.test_case "schedule parsing" `Quick test_schedule_parsing;
          Alcotest.test_case "dynamic matches static" `Quick
            test_exec_dynamic_matches_static;
          Alcotest.test_case "exception propagates" `Quick
            test_spmd_exception_propagates;
          Alcotest.test_case "run_phases barrier" `Quick
            test_spmd_run_phases_barrier;
          Alcotest.test_case "run_phases hook" `Quick
            test_spmd_run_phases_on_phase;
          Alcotest.test_case "run_phases exception" `Quick
            test_spmd_run_phases_exception;
          Alcotest.test_case "stop idempotent" `Quick
            test_spmd_stop_idempotent ] );
      ( "fork_join",
        [ Alcotest.test_case "correct" `Quick test_fork_join_correct;
          Alcotest.test_case "region count" `Quick
            test_fork_join_region_count;
          Alcotest.test_case "exception re-raised" `Quick
            test_fork_join_exception;
          Alcotest.test_case "nested region inline" `Quick
            test_fork_join_nested_inline;
          Alcotest.test_case "varying lane counts" `Quick
            test_fork_join_varying_lanes;
          Alcotest.test_case "team bounded" `Quick
            test_fork_join_team_bounded ] );
      ( "team",
        [ Alcotest.test_case "spmd execs share the team" `Quick
            test_team_spmd_no_leak;
          Alcotest.test_case "nested phases inline" `Quick
            test_team_nested_phases;
          Alcotest.test_case "schedulers interleaved" `Quick
            test_team_interleaving;
          Alcotest.test_case "barrier waiters park" `Quick
            test_team_barrier_parks ] );
      ( "exec",
        [ Alcotest.test_case "parallel_for" `Quick test_exec_parallel_for;
          Alcotest.test_case "reduce max" `Quick test_exec_reduce_max;
          Alcotest.test_case "region counting" `Quick
            test_exec_region_counting;
          Alcotest.test_case "for_lanes coverage" `Quick
            test_exec_for_lanes_cover;
          Alcotest.test_case "for_lanes edge cases" `Quick
            test_exec_for_lanes_edges;
          Alcotest.test_case "bucket gc words" `Quick test_exec_bucket_words;
          Alcotest.test_case "parallel_phases" `Quick
            test_exec_parallel_phases;
          Alcotest.test_case "phase attribution" `Quick
            test_exec_phase_attribution;
          Alcotest.test_case "reduce lanes" `Quick test_exec_reduce_lanes;
          Alcotest.test_case "describe" `Quick test_exec_describe ] );
      ( "workspace",
        [ Alcotest.test_case "reuse" `Quick test_workspace_reuse;
          Alcotest.test_case "growth" `Quick test_workspace_growth;
          Alcotest.test_case "invalid" `Quick test_workspace_invalid;
          Alcotest.test_case "exec sizing" `Quick test_exec_workspace_sized;
          Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic ]
      );
      ( "cost_model",
        [ Alcotest.test_case "one core" `Quick test_model_one_core_no_overhead;
          Alcotest.test_case "spin scales" `Quick test_model_spin_scales;
          Alcotest.test_case "fork/join degrades" `Quick
            test_model_fork_join_degrades;
          Alcotest.test_case "speedup monotone" `Quick
            test_model_speedup_monotone_small;
          Alcotest.test_case "crossover" `Quick test_model_crossover;
          Alcotest.test_case "bandwidth cap" `Quick test_model_bandwidth_cap
        ] );
      ("properties", qcheck_cases) ]
