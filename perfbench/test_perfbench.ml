(* Tests of the benchmark's own arithmetic, generator and oracles. *)

open Perfbench

let float_eq = Alcotest.float 1e-12

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check float_eq "p50 of 1..100" 50. (Stats.percentile 50. xs);
  Alcotest.check float_eq "p90 of 1..100" 90. (Stats.percentile 90. xs);
  Alcotest.check float_eq "p100 is the max" 100. (Stats.percentile 100. xs);
  Alcotest.check float_eq "nearest rank rounds up" 3.
    (Stats.percentile 50. [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.check float_eq "single sample" 7. (Stats.percentile 90. [| 7. |]);
  Alcotest.(check int) "rank of p90 in 100" 90 (Stats.rank 90. 100);
  Alcotest.(check int) "rank of p90 in 10" 9 (Stats.rank 90. 10)

let test_tail_rule () =
  Alcotest.(check int) "p90 needs 100 samples" 100 (Stats.min_samples 90.);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Stats.min_samples 50.);
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Stats.min_samples 99.);
  let xs n = Array.init n float_of_int in
  Alcotest.check float_eq "p90 of 100 allowed" 89. (Stats.tail 90. (xs 100));
  Alcotest.check_raises "p90 of 99 refused"
    (Invalid_argument
       "Stats.tail: p90 of 99 samples leaves 9 beyond it (< 10)")
    (fun () -> ignore (Stats.tail 90. (xs 99)))

let test_self_time () =
  (* Parent [0, 100]; children [10, 30] and [20, 50] overlap, [90, 120]
     sticks out of the parent: covered 40 + 10, self 50. *)
  Alcotest.check float_eq "overlapping children" 50.
    (Trace.self_time ~t0:0. ~t1:100. [ (10., 30.); (20., 50.); (90., 120.) ]);
  Alcotest.check float_eq "no children" 100. (Trace.self_time ~t0:0. ~t1:100. []);
  Alcotest.check float_eq "nested child inside another" 80.
    (Trace.self_time ~t0:0. ~t1:100. [ (10., 30.); (15., 20.) ]);
  Alcotest.check float_eq "child covering everything" 0.
    (Trace.self_time ~t0:0. ~t1:100. [ (-5., 105.) ])

let test_span_tree () =
  Trace.recording := true;
  let outer = Trace.start ~group:"g" "outer" in
  Trace.span ~group:"g" "inner" (fun () -> ignore (Sys.opaque_identity 0));
  Trace.stop outer;
  Trace.recording := false;
  let spans = Trace.spans () in
  let find name = List.find (fun s -> s.Trace.name = name) spans in
  let o = find "outer" and i = find "inner" in
  Alcotest.(check int) "inner's parent is outer" o.Trace.id i.Trace.parent;
  Alcotest.(check string) "group shared" o.Trace.group i.Trace.group;
  let self = List.assq o (Trace.self_times spans) in
  Alcotest.check float_eq "outer self time excludes inner"
    (Trace.duration o -. Trace.duration i)
    self

let describe_fleet xs =
  List.map
    (fun a ->
      Printf.sprintf "%.17g %s %s %s" a.Gen.due_s a.Gen.job.Fleet.Job.id
        (Gen.kind_name a.Gen.kind)
        (String.concat ","
           (List.map (fun (k, v) -> k ^ "=" ^ v) (Fleet.Job.to_kv a.Gen.job))))
    xs

let test_generator () =
  let a = Gen.solver ~seed:7 and b = Gen.solver ~seed:7 in
  Alcotest.(check bool) "solver inputs repeat" true (a = b);
  Alcotest.(check bool) "another seed moves them" false (a = Gen.solver ~seed:8);
  Alcotest.(check bool) "mach within 2.2 +- 0.1" true
    (Float.abs (a.Gen.mach -. 2.2) <= 0.1);
  let plan seed = describe_fleet (Gen.fleet ~seed ~rate:10. ~jobs:40 ~prefix:"j") in
  Alcotest.(check (list string)) "fleet plan repeats" (plan 3) (plan 3);
  Alcotest.(check bool) "another seed moves it" false (plan 3 = plan 4);
  let kinds seed =
    List.sort compare
      (List.map (fun a -> a.Gen.kind)
         (Gen.fleet ~seed ~rate:10. ~jobs:(2 * List.length Gen.block) ~prefix:"j"))
  in
  Alcotest.(check bool) "mix composition is seed-independent" true
    (kinds 3 = kinds 4);
  let st1 = (Gen.sod_problem a ~nx:50).Euler.Setup.state
  and st2 = (Gen.sod_problem a ~nx:50).Euler.Setup.state in
  Alcotest.(check bool) "sod states repeat" true
    (Result.is_ok (Oracle.bitwise_equal st1 st2))

let sod () = (Euler.Setup.sod ~nx:32 ()).Euler.Setup.state

let perturb st f =
  let st = Euler.State.copy st in
  let g = st.Euler.State.grid in
  let o = Euler.Grid.offset g 5 0 in
  st.Euler.State.q.(Euler.State.i_rho).(o) <- f st.Euler.State.q.(Euler.State.i_rho).(o);
  st

let test_oracles () =
  let a = sod () in
  Alcotest.(check bool) "bitwise accepts a copy" true
    (Result.is_ok (Oracle.bitwise_equal a (Euler.State.copy a)));
  Alcotest.(check bool) "bitwise rejects one ulp" true
    (Result.is_error (Oracle.bitwise_equal a (perturb a Float.succ)));
  Alcotest.(check bool) "tolerance accepts 1e-13" true
    (Result.is_ok (Oracle.within ~tol:1e-12 a (perturb a (fun x -> x +. 1e-13))));
  Alcotest.(check bool) "tolerance rejects 1e-7" true
    (Result.is_error (Oracle.within ~tol:1e-8 a (perturb a (fun x -> x +. 1e-7))));
  Alcotest.(check bool) "tolerance rejects NaN" true
    (Result.is_error (Oracle.within ~tol:1e-8 a (perturb a (fun _ -> nan))));
  Alcotest.(check bool) "physical accepts sod" true (Result.is_ok (Oracle.physical a));
  Alcotest.(check bool) "physical rejects negative density" true
    (Result.is_error (Oracle.physical (perturb a (fun _ -> -1.))));
  Alcotest.(check bool) "physical rejects NaN" true
    (Result.is_error (Oracle.physical (perturb a (fun _ -> nan))));
  let done_ steps = [ ("status", "done"); ("steps", string_of_int steps) ] in
  let expected = [ ("a", 60); ("b", 30) ] in
  Alcotest.(check bool) "fleet accepts all done" true
    (Result.is_ok
       (Oracle.fleet_results ~expected ~results:[ ("a", done_ 60); ("b", done_ 30) ]));
  Alcotest.(check bool) "fleet rejects a short job" true
    (Result.is_error
       (Oracle.fleet_results ~expected ~results:[ ("a", done_ 60); ("b", done_ 29) ]));
  Alcotest.(check bool) "fleet rejects a missing result" true
    (Result.is_error (Oracle.fleet_results ~expected ~results:[ ("a", done_ 60) ]));
  Alcotest.(check bool) "fleet rejects a duplicate result" true
    (Result.is_error
       (Oracle.fleet_results ~expected
          ~results:[ ("a", done_ 60); ("a", done_ 60); ("b", done_ 30) ]));
  Alcotest.(check bool) "fleet rejects a failed job" true
    (Result.is_error
       (Oracle.fleet_results ~expected
          ~results:[ ("a", done_ 60); ("b", [ ("status", "failed"); ("steps", "30") ]) ]));
  Alcotest.(check bool) "bytes reject one flipped byte" true
    (Result.is_error (Oracle.same_bytes ~id:"a" ~expected:"abcd" ~actual:"abce"))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "tail keeps ten samples beyond" `Quick test_tail_rule ] );
      ( "trace",
        [ Alcotest.test_case "self time with overlapping children" `Quick
            test_self_time;
          Alcotest.test_case "span tree" `Quick test_span_tree ] );
      ("gen", [ Alcotest.test_case "same seed, same inputs" `Quick test_generator ]);
      ("oracle", [ Alcotest.test_case "perturbed states rejected" `Quick test_oracles ]) ]
