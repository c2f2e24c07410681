(* The bench artefact module: its JSON printer and reader, and the floor
   table every BENCH_*.json is checked against.  Each schema has one
   passing artefact, and each of its predicates one mutation that must
   fail it by name. *)

open Artefact

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Printer and reader                                                  *)
(* ------------------------------------------------------------------ *)

let sample =
  Obj
    [ ("ints", List [ Int 0; Int (-7); Int max_int; Int min_int ]);
      ( "floats",
        List
          [ Float (-2.5); Float 1e-300; Float 6.02e23; Float (-1.5e-7);
            Float 2.0; Float (-3.0); Float 0.1; Float 1e21; Float 123456789.0 ]
      );
      ( "escaped",
        String "quote \" backslash \\ newline \n tab \t nul \000 \031" );
      ("utf8", String "\xc3\xa9t\xc3\xa9");
      ("empty_list", List []);
      ("empty_obj", Obj []);
      ("null", Null);
      ("bools", List [ Bool true; Bool false ]);
      ( "rows",
        List
          [ Obj [ ("nested", List [ List []; Obj [ ("k", Float 1.0) ] ]) ];
            Obj [] ] ) ]

let test_round_trip () =
  let text = to_string sample in
  check_bool "print then read gives the value back" true
    (of_string text = Ok sample);
  check_bool "integer-valued floats stay floats" true
    (of_string (to_string (Float 2.0)) = Ok (Float 2.0));
  check_bool "ints stay ints" true (of_string "2" = Ok (Int 2));
  check_bool "non-finite floats print as null" true
    (to_string (List [ Float nan; Float infinity ]) = "[\n  null,\n  null\n]");
  check_bool "spaces and newlines between tokens are free" true
    (of_string {| { "a" : [ 1 , -2.5e+3 , "x\n" ] } |}
    = Ok (Obj [ ("a", List [ Int 1; Float (-2500.); String "x\n" ]) ]))

let rejects name text =
  match of_string text with
  | Ok _ -> Alcotest.failf "%s: accepted %S" name text
  | Error msg ->
    check_bool (name ^ " names the byte offset") true
      (String.starts_with ~prefix:"byte " msg)

let test_rejects () =
  let text = to_string sample in
  for i = 0 to String.length text - 1 do
    rejects "truncated" (String.sub text 0 i)
  done;
  List.iter (rejects "trailing input") [ text ^ " x"; "1 2"; "{}}"; "[] []" ];
  List.iter (rejects "not what the printer writes")
    [ "01"; "1."; ".5"; "+1"; "-"; "1e"; "tru"; "nul"; "[1,]"; "{\"a\"}";
      "{\"a\":1,}"; "'a'"; "\"\\t\""; "\"\\u0041\""; "\"\\u001F\"";
      "\"raw\ncontrol\""; "99999999999999999999"; "NaN"; "1E5"; "[1,\t2]" ];
  check_bool "the offset is where reading stopped" true
    (of_string "[1, 2,, 3]" = Error "byte 6: unexpected character")

(* ------------------------------------------------------------------ *)
(* One passing artefact per schema                                     *)
(* ------------------------------------------------------------------ *)

let hotpath ~quick =
  let row ?(extra = []) name =
    Obj
      ([ ("name", String name); ("scheme", String "pc+rusanov");
         ("time_per_step_s", Float 1e-4) ]
      @ extra)
  in
  Obj
    [ ("schema", String "hotpath-v3"); ("quick", Bool quick);
      ("parity_target", Float 1.2);
      ( "fold",
        Obj
          [ ("seq_ms_per_call", Float 0.36); ("kernel_speedup", Float 27.4);
            ("par_lanes", Int 2); ("par_speedup", Float 1.8);
            ("bitwise_equal", Bool true); ("fold_execs", Int 20);
            ("fold_kernel_execs", Int 20); ("par_fold_kernel_execs", Int 20) ]
      );
      ( "backends",
        List
          [ row "reference";
            row "sacprog-vm"
              ~extra:
                [ ("speedup_vs_interp", Float 130.0);
                  ("slowdown_vs_reference_sod", Float 1.1);
                  ("minor_words_per_step", Float 3751.) ];
            row "sacprog-interp"; row "reference-sod" ] ) ]

let execs_rows f =
  List.concat_map
    (fun (exec, lanes) -> List.map (f exec lanes) [ 1; 2; 3 ])
    [ ("sequential", 1); ("spmd", 2); ("fork-join", 2) ]

(* A sweep up to [lanes]: the sequential row, then spmd and fork-join
   at 1..lanes, fused and unfused. *)
let scaling ~lanes =
  let row exec lanes fused =
    Obj
      [ ("exec", String exec); ("lanes", Int lanes); ("fused", Bool fused);
        ("ms_per_step", Float 0.2);
        ( "regions_per_step",
          Float
            (if exec = "fork-join" then 15. else if fused then 3. else 10.) ) ]
  in
  let sweep fused =
    row "sequential" 1 fused
    :: List.concat_map
         (fun e -> List.init lanes (fun i -> row e (i + 1) fused))
         [ "spmd"; "fork-join" ]
  in
  Obj
    [ ("schema", String "scaling-v1"); ("quick", Bool true);
      ("max_lanes", Int lanes); ("rows", List (sweep true @ sweep false)) ]

let checkpoint =
  Obj
    [ ("schema", String "checkpoint-v1"); ("quick", Bool true);
      ( "rows",
        List
          [ Obj
              [ ("grid", List [ Int 32; Int 32 ]);
                ("ms_per_snapshot", Float 1.7);
                ("payload_fraction", Float 0.99) ] ] ) ]

let tiling =
  let row exec lanes k =
    let tiles = List.nth [ (1, 1); (2, 2); (3, 2) ] (k - 1) in
    Obj
      [ ("exec", String exec); ("lanes", Int lanes);
        ("tiles", List [ Int (fst tiles); Int (snd tiles) ]);
        ("ms_per_step", Float 0.2);
        ("halo_share", Float (if k = 1 then 0. else 0.05));
        ("regions_per_step", Float (if exec = "fork-join" then 15. else 3.));
        ("growths_stable", Bool true) ]
  in
  Obj
    [ ("schema", String "tiling-v1"); ("quick", Bool true);
      ("rows", List (execs_rows row)) ]

let convergence =
  let row kind ~min ~observed n =
    Obj
      [ ("kind", String kind); ("min_order", Float min);
        ("observed_order", Float observed); ("monotone", Bool true);
        ("pass", Bool true);
        ( "samples",
          List
            (List.init n (fun i ->
                 Obj [ ("nx", Int (40 lsl i)); ("l1", Float 1e-5) ])) ) ]
  in
  Obj
    [ ("schema", String "convergence-v1"); ("quick", Bool true);
      ( "rows",
        List
          [ row "self" ~min:0.6 ~observed:0.72 2;
            row "self" ~min:2.5 ~observed:2.99 2;
            row "exact" ~min:0.4 ~observed:0.45 3 ] ) ]

let fleet =
  Obj
    [ ("schema", String "fleet-v2"); ("quick", Bool true); ("jobs", Int 20);
      ("completed", Int 20);
      ("failed", Int 0); ("preemptions", Int 3); ("resumes", Int 3);
      ( "fleet",
        Obj
          [ ("agg_cells_per_s", Float 1e5); ("p50_ms_per_step", Float 0.02);
            ("p99_ms_per_step", Float 0.2) ] );
      ("speedup", Float 2.5); ("speedup_floor", Float 2.0);
      ( "rows",
        List
          (List.init 20 (fun i ->
               Obj
                 [ ("id", String (Printf.sprintf "job-%d" i));
                   ("steps_run", Int 12); ("status", String "done") ])) ) ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let rec set_path path x v =
  match (path, v) with
  | [], _ -> x
  | k :: rest, Obj l ->
    let f (k', v') = (k', if k' = k then set_path rest x v' else v') in
    Obj (List.map f l)
  | _ -> v

(* [set "a.b" x]: replace the field at a dotted path. *)
let set path x = set_path (String.split_on_char '.' path) x

(* [rows key f]: rewrite the list under [key]. *)
let rows key f v =
  match v with
  | Obj l ->
    set key (List (f (match List.assoc key l with List r -> r | _ -> []))) v
  | _ -> v

(* [row key i field x]: set [field] of row [i] of the list under [key]. *)
let row key i field x =
  rows key (List.mapi (fun j r -> if j = i then set field x r else r))

let drop key p = rows key (List.filter (fun r -> not (p r)))
let field k r = match r with Obj l -> List.assoc k l | _ -> Null

let mutations =
  [ ( "hotpath",
      hotpath ~quick:false,
      [ ("parity_target", set "parity_target" (Float 1.5));
        ("fold.bitwise_equal", set "fold.bitwise_equal" (Bool false));
        ("fold.fold_kernel_execs", set "fold.fold_kernel_execs" (Int 0));
        ( "fold.fold_execs - fold.fold_kernel_execs",
          set "fold.fold_execs" (Int 21) );
        ( "fold.par_fold_kernel_execs",
          set "fold.par_fold_kernel_execs" (Int 0) );
        ("fold.seq_ms_per_call", set "fold.seq_ms_per_call" (Float 0.));
        ("fold.kernel_speedup", set "fold.kernel_speedup" (Float 0.9));
        ("fold.par_lanes", set "fold.par_lanes" (Int 1));
        ("fold.par_speedup", set "fold.par_speedup" (Float 1.19));
        ("#backends", rows "backends" (fun _ -> []));
        ( "#backends[name=sacprog-vm]",
          rows "backends" (fun r -> r @ [ List.nth r 1 ]) );
        ( "#backends[name=sacprog-interp]",
          drop "backends" (fun r -> field "name" r = String "sacprog-interp") );
        ( "#backends[name=reference-sod]",
          drop "backends" (fun r -> field "name" r = String "reference-sod") );
        ( "min backends[name=sacprog-vm].speedup_vs_interp",
          row "backends" 1 "speedup_vs_interp" (Float 0.8) );
        ( "min backends[name=sacprog-vm].slowdown_vs_reference_sod",
          row "backends" 1 "slowdown_vs_reference_sod" (Float 0.) );
        ( "max backends[name=sacprog-vm].minor_words_per_step",
          row "backends" 1 "minor_words_per_step" (Float 7577.) );
        ( "max backends[name=sacprog-vm].slowdown_vs_reference_sod",
          row "backends" 1 "slowdown_vs_reference_sod" (Float 2.4) ) ] );
    ( "scaling",
      scaling ~lanes:2,
      [ ( "set rows.exec",
          drop "rows" (fun r -> field "exec" r = String "fork-join") );
        ( "min rows[exec!=sequential].lanes",
          drop "rows" (fun r ->
              field "lanes" r = Int 1 && field "exec" r <> String "sequential")
        );
        ("max rows[exec!=sequential].lanes", set "max_lanes" (Int 4));
        ("set rows.fused", drop "rows" (fun r -> field "fused" r = Bool false));
        ( "max rows[fused=true&exec!=fork-join].regions_per_step",
          row "rows" 1 "regions_per_step" (Float 5.) );
        ("min rows.ms_per_step", row "rows" 7 "ms_per_step" (Float 0.)) ] );
    ( "checkpoint",
      checkpoint,
      [ ("#rows", rows "rows" (fun _ -> []));
        ("min rows.ms_per_snapshot", row "rows" 0 "ms_per_snapshot" (Float 0.));
        ( "min rows.payload_fraction",
          row "rows" 0 "payload_fraction" (Float 0.5) ) ] );
    ( "tiling",
      tiling,
      [ ( "set rows.exec",
          drop "rows" (fun r -> field "exec" r = String "spmd") );
        ("set rows.tiles", row "rows" 2 "tiles" (List [ Int 4; Int 4 ]));
        ( "max rows[exec!=fork-join].regions_per_step",
          row "rows" 4 "regions_per_step" (Float 6.) );
        ( "min rows[tiles!=[1,1]].halo_share",
          row "rows" 5 "halo_share" (Float 0.) );
        ( "max rows[tiles=[1,1]].halo_share",
          row "rows" 3 "halo_share" (Float 0.01) );
        ("set rows.growths_stable", row "rows" 8 "growths_stable" (Bool false));
        ("min rows.ms_per_step", row "rows" 0 "ms_per_step" (Float 0.)) ] );
    ( "convergence",
      convergence,
      [ ( "set rows.kind",
          drop "rows" (fun r -> field "kind" r = String "exact") );
        ("set rows.pass", row "rows" 2 "pass" (Bool false));
        ("set rows.monotone", row "rows" 0 "monotone" (Bool false));
        ("min rows.#samples", row "rows" 2 "samples" (List [ Obj [] ]));
        ( "min rows[kind=self].observed_order - min_order",
          row "rows" 1 "observed_order" (Float 2.4) ) ] );
    ( "fleet",
      fleet,
      [ ("speedup_floor", set "speedup_floor" (Float 1.5));
        ("speedup", set "speedup" (Float 1.99));
        ("failed", set "failed" (Int 1));
        ("jobs - completed", set "completed" (Int 19));
        ("preemptions", set "preemptions" (Int 0));
        ("resumes", set "resumes" (Int 0));
        ( "#rows",
          fun v ->
            rows "rows" List.tl v |> set "jobs" (Int 19)
            |> set "completed" (Int 19) );
        ("#rows - jobs", set "jobs" (Int 21));
        ("set rows.status", row "rows" 4 "status" (String "failed: boom"));
        ("min rows.steps_run", row "rows" 7 "steps_run" (Int 0));
        ("fleet.agg_cells_per_s", set "fleet.agg_cells_per_s" (Float 0.));
        ( "fleet.p99_ms_per_step - fleet.p50_ms_per_step",
          set "fleet.p99_ms_per_step" (Float 0.01) ) ] ) ]

let outcomes v =
  match check (Result.get_ok (of_string (to_string v))) with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let failing v =
  List.filter_map
    (fun o -> if o.ok || o.exempt then None else Some o.name)
    (outcomes v)

let test_schema (schema, base, muts) () =
  Alcotest.(check (list string)) (schema ^ " passes") [] (failing base);
  Alcotest.(check (list string))
    (schema ^ ": one mutation per predicate")
    (List.sort compare (List.map (fun o -> o.name) (outcomes base)))
    (List.sort compare (List.map fst muts));
  List.iter
    (fun (name, mutate) ->
      let failed = failing (mutate base) in
      if not (List.mem name failed) then
        Alcotest.failf "%s: mutating %s did not fail it (failed: [%s])" schema
          name (String.concat "; " failed))
    muts

let test_quick_exempt () =
  let slow v =
    v
    |> set "fold.par_speedup" (Float 0.9)
    |> row "backends" 1 "slowdown_vs_reference_sod" (Float 3.0)
  in
  let floors =
    [ "fold.par_speedup";
      "max backends[name=sacprog-vm].slowdown_vs_reference_sod" ]
  in
  Alcotest.(check (list string))
    "a quick artefact is exempt from both floors" []
    (failing (slow (hotpath ~quick:true)));
  Alcotest.(check (list string))
    "a full artefact is not" floors
    (failing (slow (hotpath ~quick:false)));
  check_bool "the exemption is reported" true
    (List.for_all
       (fun o -> (not (List.mem o.name floors)) || (o.exempt && not o.ok))
       (outcomes (slow (hotpath ~quick:true))));
  check_bool "nothing else is quick-exempt" true
    (List.for_all
       (fun (_, base, _) ->
         List.for_all
           (fun o -> (not o.exempt) || List.mem o.name floors)
           (outcomes (set "quick" (Bool true) base)))
       mutations)

let test_scaling_lanes () =
  List.iter
    (fun lanes ->
      Alcotest.(check (list string))
        (Printf.sprintf "a sweep to %d lanes passes" lanes)
        [] (failing (scaling ~lanes)))
    [ 1; 3; 4 ];
  Alcotest.(check (list string))
    "a sweep that stops short of max_lanes does not"
    [ "max rows[exec!=sequential].lanes" ]
    (failing (set "max_lanes" (Int 3) (scaling ~lanes:4)))

let test_unknown_schema () =
  check_bool "an unknown schema is an error" true
    (Result.is_error (check (Obj [ ("schema", String "hotpath-v2") ])));
  check_bool "a missing schema is an error" true
    (Result.is_error (check (Obj [])))

let test_validate_file () =
  let file = Filename.temp_file "bench_artefact" ".json" in
  let put text =
    Out_channel.with_open_bin file (fun oc -> output_string oc text)
  in
  put (to_string fleet);
  check_bool "a passing file validates" true (validate file);
  put (to_string (set "failed" (Int 2) fleet));
  check_bool "a failing file does not" false (validate file);
  put "{\"schema\": ";
  check_bool "a truncated file does not" false (validate file);
  Sys.remove file;
  check_bool "a missing file does not" false (validate file)

let () =
  Alcotest.run "artefact"
    [ ( "json",
        [ Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "rejects" `Quick test_rejects ] );
      ( "floors",
        List.map
          (fun ((schema, _, _) as m) ->
            Alcotest.test_case (schema ^ " predicates") `Quick (test_schema m))
          mutations
        @ [ Alcotest.test_case "quick exemptions" `Quick test_quick_exempt;
            Alcotest.test_case "scaling lane counts" `Quick test_scaling_lanes;
            Alcotest.test_case "unknown schema" `Quick test_unknown_schema;
            Alcotest.test_case "validate a file" `Quick test_validate_file ] ) ]
