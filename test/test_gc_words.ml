(* GC word sampling under minor-heap churn.  It shrinks the minor heap
   for the whole process, which slows every test that runs after it in
   the same process, so it lives in an executable of its own. *)

(* Every instrumented region samples GC words at its start and end.
   With a tiny minor heap and bodies that fill it, the sample taken at
   a region's start lives across several minor collections; a sample
   that kept [Gc.counters]'s tuple would make one of them follow a
   dangling pointer into the reused minor heap and abort the process.
   Counts must also never run backwards. *)
let test_survive_churn () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 4096 };
      let keep = Array.make 64 [||] in
      let churn n =
        for k = 0 to n do
          keep.(k land 63) <- Array.make 3 0.125
        done
      in
      let body ~lane:_ i = churn (200 + i) in
      List.iter
        (fun sched ->
          let last = ref (Parallel.Exec.gc_words ()) in
          for i = 1 to 5000 do
            churn (i mod 13);
            Parallel.Exec.timed sched Parallel.Exec.Rhs (fun () -> churn 1500);
            Parallel.Exec.parallel_for sched ~lo:0 ~hi:3 (fun _ ->
                churn (500 + (i mod 7)));
            ignore
              (Parallel.Exec.parallel_reduce_lanes sched ~lo:0 ~hi:3
                 ~init:Float.neg_infinity ~combine:Float.max
                 (fun ~acc ~cell ~lane:_ k ->
                   churn (700 + k);
                   let v = float_of_int k in
                   if v > acc.(cell) then acc.(cell) <- v));
            Parallel.Exec.parallel_phases sched
              [| { Parallel.Exec.region = Parallel.Exec.Bc; lo = 0; hi = 2;
                   body };
                 { Parallel.Exec.region = Parallel.Exec.Rhs; lo = 0; hi = 3;
                   body } |];
            let w = Parallel.Exec.gc_words () in
            if w.minor < !last.minor || w.promoted < !last.promoted then
              Alcotest.fail "GC word counts ran backwards";
            last := w
          done)
        [ Parallel.Exec.sequential (); Parallel.Exec.spmd ~lanes:1 ])

let () =
  Alcotest.run "gc_words"
    [ ( "exec",
        [ Alcotest.test_case "samples survive minor-heap churn" `Quick
            test_survive_churn ] ) ]
