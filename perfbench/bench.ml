(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see README.md for why each was chosen):
   - fig3-channel: the paper's Fig. 3 flow computation, WENO3 + HLLC +
     TVD-RK3 on the reference backend, fused, SPMD at 2 lanes;
   - fig4-fortran: the paper's Fig. 4 Fortran -autopar row, PC +
     Rusanov + RK3 on the fortran backend, fork/join at 2 lanes;
   - sod-vm: the mini-SaC port on the bytecode VM, SPMD at 2 lanes;
   - fleet-open: the fleet job engine under an open loop.
   fig3-channel is not listed in BENCHMARK.json: on a 2-vCPU host its
   step time is too unsteady to hold the bound (see README.md).

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   records spans around its own calls into each layer, writes them as
   Chrome trace-event JSON under perfbench_out/, and prints the
   per-layer metrics.  Either way it checks the outputs outside the
   timed window, prints one JSON object as its last line, and exits
   non-zero when a check fails. *)

open Perfbench

let now_s = Parallel.Clock.now_s
let now_ns = Parallel.Clock.now_ns

(* ---------------------------------------------------------------- *)
(* Metrics, checks and the result line *)

(* The p90s of step and turnaround time are printed (see [note]) but not
   gated: a co-tenant on the 2-vCPU host moves them by a third between
   sets of runs of the same code (see README.md). *)
let end_to_end =
  [ ("step_ms_p50", "ms"); ("cells_per_s", "cells/s"); ("turnaround_s_p50", "s");
    ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("parallel.regions_per_step", "count");
    ("parallel.region_ms_per_step", "ms");
    ("parallel.outside_region_ms_per_step", "ms");
    ("parallel.speedup_2_lanes", "ratio"); ("parallel.model_rel_err", "ratio");
    ("euler.bc_ms_per_step", "ms"); ("euler.halo_ms_per_step", "ms");
    ("euler.rhs_ms_per_step", "ms"); ("euler.combine_ms_per_step", "ms");
    ("euler.reduce_ms_per_step", "ms"); ("euler.minor_words_per_step", "words");
    ("fortran_baseline.rhs_ms_per_step", "ms");
    ("fortran_baseline.combine_ms_per_step", "ms");
    ("fortran_baseline.bc_ms_per_step", "ms");
    ("fortran_baseline.minor_words_per_step", "words");
    ("engine.create_ms", "ms"); ("engine.warmup_ms", "ms");
    ("engine.dt_ms_per_step", "ms"); ("engine.step_dt_ms_per_step", "ms");
    ("sac.frontend_ms", "ms"); ("sac.lower_ms", "ms");
    ("sac.with_loops_per_step", "count"); ("sac.folds_per_step", "count");
    ("sac.fold_kernel_share", "ratio"); ("sac.kernels_off_slowdown", "ratio");
    ("sac.minor_words_per_step", "words"); ("persist.save_ms_p50", "ms");
    ("persist.resume_ms_p50", "ms"); ("persist.bytes_per_save", "bytes");
    ("persist.saves_per_job", "count"); ("fleet.queue_wait_s_p50", "s");
    ("fleet.queue_wait_s_p90", "s"); ("fleet.compute_s_per_job", "s");
    ("fleet.batch_jobs_mean", "count"); ("fleet.preemptions_per_job", "count");
    ("fleet.inbox_ms_per_job", "ms"); ("loadgen.lag_s_p90", "s");
    ("trace.overhead_share", "ratio") ]

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let metric ?n name v =
  Hashtbl.replace values name v;
  let unit_ =
    match List.assoc_opt name (end_to_end @ per_layer) with
    | Some u -> u
    | None -> invalid_arg ("unknown metric " ^ name)
  in
  Printf.printf "  %-40s %14.6g %-8s%s\n%!" name v unit_
    (match n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

(* A figure printed for the reader but left out of the result line. *)
let note ~n name v unit_ =
  Printf.printf "  %-40s %14.6g %-8s (n=%d, not gated)\n%!" name v unit_ n

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let check what = function
  | Ok () -> Printf.printf "  check %s: ok\n%!" what
  | Error msg ->
    failures := (what ^ ": " ^ msg) :: !failures;
    Printf.printf "  check %s: FAILED %s\n%!" what msg

let result_line ~traced =
  let names = if traced then per_layer else end_to_end in
  let field (name, unit_) =
    let v =
      match Hashtbl.find_opt values name with
      | Some v when Float.is_finite v -> v
      | Some _ ->
        failures := (name ^ ": not finite") :: !failures;
        0.
      | None when traced -> 0.  (* the layer does not run in this workload *)
      | None ->
        failures := (name ^ ": not measured") :: !failures;
        0.
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  let fields = List.map field names in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failures = []) (max 1 !attempted) !failed (String.concat ", " fields)

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
        (fun kb -> kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let ms_of_ns ns = ns /. 1e6

(* Setup is repeated and its median reported: one set-up is too short
   to time steadily. *)
let setup_reps = 11

let median_of f xs = Stats.median (Array.of_list (List.map f xs))

(* ---------------------------------------------------------------- *)
(* Solver workloads *)

type solver = {
  backend : string;
  config : Euler.Solver.config;
  problem : Gen.solver_input -> Euler.Setup.problem;
  make_exec : unit -> Parallel.Exec.t;
  oracle : [ `Sequential | `Reference of float ];
      (* bitwise against the sequential scheduler, or within a
         tolerance of the reference backend *)
  layer : [ `Euler | `Fortran_baseline | `Sac ];
      (* the library whose per-layer metrics this workload reports *)
}

let two_channel ~nx (input : Gen.solver_input) =
  Engine.Scenario.problem ~nx ~ms:input.Gen.mach
    (Engine.Scenario.find_exn "two-channel")

let fig3 =
  { backend = "reference";
    config = { Euler.Solver.default_config with Euler.Solver.fused = true };
    problem = two_channel ~nx:128;
    make_exec = (fun () -> Parallel.Exec.spmd ~lanes:2);
    oracle = `Sequential;
    layer = `Euler }

let fig4 =
  { backend = "fortran";
    config = Euler.Solver.benchmark_config;
    problem = two_channel ~nx:64;
    make_exec = (fun () -> Parallel.Exec.fork_join ~lanes:2);
    oracle = `Reference 1e-8;
    layer = `Fortran_baseline }

let sod_vm_nx = 4000

let sod_vm =
  { backend = "sacprog";
    config = Euler.Solver.benchmark_config;
    problem = (fun input -> Gen.sod_problem input ~nx:sod_vm_nx);
    make_exec = (fun () -> Parallel.Exec.spmd ~lanes:2);
    oracle = `Reference 1e-12;
    layer = `Sac }

type setup = {
  inst : Engine.Backend.instance;
  total_s : float;
  create_s : float;
  warmup_s : float;
}

let setup_once wl input ~rep =
  let group = Printf.sprintf "setup-%d" rep in
  Trace.span ~group "setup" (fun () ->
      let t0 = now_s () in
      let prob = Trace.span ~group "euler.Setup" (fun () -> wl.problem input) in
      let exec = wl.make_exec () in
      let t1 = now_s () in
      let inst =
        Trace.span ~group "engine.Registry.create" (fun () ->
            Engine.Registry.create ~exec ~config:wl.config wl.backend prob)
      in
      let t2 = now_s () in
      ignore
        (Trace.span ~group "engine.warmup" (fun () -> Engine.Backend.step inst));
      let t3 = now_s () in
      { inst; total_s = t3 -. t0; create_s = t2 -. t1; warmup_s = t3 -. t2 })

let setup wl input =
  let runs =
    List.init setup_reps (fun rep ->
        let s = setup_once wl input ~rep in
        if rep < setup_reps - 1 then
          Parallel.Exec.shutdown (Engine.Backend.exec s.inst);
        s)
  in
  (List.nth runs (setup_reps - 1), runs)

let cells inst =
  let g = (Engine.Backend.state inst).Euler.State.grid in
  g.Euler.Grid.nx * g.Euler.Grid.ny

(* Steps until both [seconds] have passed and [min_steps] were taken;
   returns each step's wall time in ns. *)
let timed_steps inst ~min_steps ~seconds =
  let times = ref [] and n = ref 0 in
  let stop = now_s () +. seconds in
  while !n < min_steps || now_s () < stop do
    let t0 = now_ns () in
    ignore (Engine.Backend.step inst);
    times := (now_ns () -. t0) :: !times;
    incr n;
    incr attempted
  done;
  Array.of_list (List.rev !times)

let bucket_ns exec =
  List.map
    (fun (r, b) -> (r, b.Parallel.Exec.total_ns))
    (Parallel.Exec.buckets exec)

let bucket_delta ~before ~after region =
  let get l = Option.value (List.assoc_opt region l) ~default:0. in
  get after -. get before

(* The sacprog backend charges each whole VM call to a bucket: only its
   Other bucket (the with-loop partitions) is time inside regions. *)
let region_kinds wl =
  match wl.layer with
  | `Sac -> [ Parallel.Exec.Other ]
  | `Euler | `Fortran_baseline -> Parallel.Exec.all_regions

let region_key r = Parallel.Exec.region_name r ^ "_ns"

(* [k] steps with a span per step and per engine call.  The scheduler's
   region count and per-kind bucket time are read around every step and
   recorded on the step span, so the per-step figures all come from the
   spans. *)
let traced_steps inst ~k =
  let exec = Engine.Backend.exec inst in
  for _ = 1 to k do
    let group = Printf.sprintf "step-%d" (Engine.Backend.steps inst + 1) in
    let b0 = bucket_ns exec and r0 = Parallel.Exec.regions exec in
    let o = Trace.start ~group "step" in
    let dt =
      Trace.span ~group "engine.Backend.dt" (fun () -> Engine.Backend.dt inst)
    in
    Trace.span ~group "engine.Backend.step_dt" (fun () ->
        Engine.Backend.step_dt inst dt);
    let b1 = bucket_ns exec in
    Trace.stop o
      ~args:
        (("regions", float_of_int (Parallel.Exec.regions exec - r0))
         :: List.map
              (fun r -> (region_key r, bucket_delta ~before:b0 ~after:b1 r))
              Parallel.Exec.all_regions);
    incr attempted
  done

let named name = List.filter (fun s -> s.Trace.name = name) (Trace.spans ())
let durations name = Array.of_list (List.map Trace.duration (named name))

(* A counter recorded on the spans named [name], summed over them. *)
let arg_sum name key =
  List.fold_left
    (fun acc s -> acc +. Option.value (List.assoc_opt key s.Trace.args) ~default:0.)
    0. (named name)

type sequential = {
  seq_inst : Engine.Backend.instance;
  seq_step_ns : float array;
  seq_minor_words : float;  (* per step; exact on a sequential exec *)
  seq_bucket_ns : Parallel.Exec.region -> float;  (* per step *)
}

(* The same problem on a sequential scheduler, on the workload's backend
   or the one given: a warm-up step, then [steps] timed steps. *)
let sequential_pass ?backend wl input ~steps =
  let exec = Parallel.Exec.sequential () in
  let inst =
    Engine.Registry.create ~exec ~config:wl.config
      (Option.value backend ~default:wl.backend)
      (wl.problem input)
  in
  ignore (Engine.Backend.step inst);
  let times = Array.make steps 0. in
  let b0 = bucket_ns exec and w0 = Gc.minor_words () in
  for i = 0 to steps - 1 do
    let t0 = now_ns () in
    ignore (Engine.Backend.step inst);
    times.(i) <- now_ns () -. t0
  done;
  let per_step x = x /. float_of_int (max 1 steps) in
  let words = per_step (Gc.minor_words () -. w0) and b1 = bucket_ns exec in
  { seq_inst = inst;
    seq_step_ns = times;
    seq_minor_words = words;
    seq_bucket_ns = (fun r -> per_step (bucket_delta ~before:b0 ~after:b1 r)) }

let report_euler ~bucket_ms ~words =
  metric "euler.bc_ms_per_step" (bucket_ms Parallel.Exec.Bc);
  metric "euler.halo_ms_per_step" (bucket_ms Parallel.Exec.Halo);
  metric "euler.rhs_ms_per_step" (bucket_ms Parallel.Exec.Rhs);
  metric "euler.combine_ms_per_step" (bucket_ms Parallel.Exec.Rk_combine);
  metric "euler.reduce_ms_per_step" (bucket_ms Parallel.Exec.Reduce);
  metric "euler.minor_words_per_step" words

(* The output check: against the sequential scheduler (bitwise) or the
   reference backend (within a tolerance), over the same number of
   steps the measured instance took. *)
let oracle wl input inst ~seq =
  let steps = Engine.Backend.steps inst in
  let st = Engine.Backend.state inst in
  check "density and pressure finite and positive" (Oracle.physical st);
  let verdict =
    match wl.oracle with
    | `Sequential ->
      let seq =
        match seq with
        | Some s when Engine.Backend.steps s.seq_inst = steps -> s.seq_inst
        | _ -> (sequential_pass wl input ~steps:(steps - 1)).seq_inst
      in
      ("bitwise equal to the sequential scheduler",
       Oracle.bitwise_equal st (Engine.Backend.state seq))
    | `Reference tol ->
      let r =
        Engine.Registry.create ~exec:(Parallel.Exec.sequential ())
          ~config:wl.config "reference" (wl.problem input)
      in
      for _ = 1 to steps do ignore (Engine.Backend.step r) done;
      (Printf.sprintf "within %g of the reference backend" tol,
       Oracle.within ~tol st (Engine.Backend.state r))
  in
  let what, v = verdict in
  check (Printf.sprintf "%s over %d steps" what steps) v;
  if !failures <> [] then failed := !attempted

let report_steps inst ~step_ns =
  let n = Array.length step_ns in
  let ms = Array.map ms_of_ns step_ns in
  metric ~n "step_ms_p50" (Stats.median ms);
  note ~n "step_ms_p90" (Stats.tail 90. ms) "ms";
  (* The median step's rate, not total cells over total time: the mean
     takes in every step the host stalled, the median does not. *)
  metric ~n "cells_per_s"
    (float_of_int (cells inst) /. (Stats.median step_ns /. 1e9));
  (* In a closed loop each step is the request: its turnaround is its
     wall time. *)
  metric ~n "turnaround_s_p50" (Stats.median ms /. 1e3)

(* Times the mini-SaC front end and the bytecode lowering apart
   (median of a few compiles), and the same step function with kernel
   specialisation off. *)
let sac_layers inst =
  let reps = 3 in
  let front = ref [] and lower = ref [] in
  for i = 1 to reps do
    let group = Printf.sprintf "sac-compile-%d" i in
    let t0 = now_s () in
    let ast, _ =
      Trace.span ~group "sac.Pipeline.compile" (fun () ->
          Sac.Pipeline.compile Sacprog.Programs.euler_1d)
    in
    let t1 = now_s () in
    ignore
      (Trace.span ~group "sac.Compile.program" (fun () ->
           Sac.Compile.program ast));
    let t2 = now_s () in
    front := (t1 -. t0) :: !front;
    lower := (t2 -. t1) :: !lower
  done;
  metric "sac.frontend_ms" (1e3 *. median_of Fun.id !front);
  metric "sac.lower_ms" (1e3 *. median_of Fun.id !lower);
  let compiled = Sacprog.Runner.compile_euler_1d () in
  let st = Engine.Backend.state inst in
  let g = st.Euler.State.grid in
  let q =
    Sac.Value.Vdarr
      (Tensor.Nd.init [| 3; g.Euler.Grid.nx |] (fun iv ->
           let o = Euler.Grid.offset g iv.(1) 0 in
           let k =
             match iv.(0) with
             | 0 -> Euler.State.i_rho
             | 1 -> Euler.State.i_mx
             | _ -> Euler.State.i_e
           in
           st.Euler.State.q.(k).(o)))
  in
  let dt = Engine.Backend.dt inst in
  let args q =
    [ q; Sac.Value.Vdbl dt; Sac.Value.Vdbl st.Euler.State.gamma;
      Sac.Value.Vdbl g.Euler.Grid.dx ]
  in
  let time_steps ~kernels =
    let ctx =
      Sac.Vm.make_ctx ~exec:(Parallel.Exec.sequential ()) ~kernels
        compiled.Sacprog.Runner.bytecode
    in
    let name = if kernels then "sac.Vm.kernels_on" else "sac.Vm.kernels_off" in
    ignore (Sac.Vm.run_fun ctx "step_dt" (args q));
    let t0 = now_s () in
    let out = ref q in
    for _ = 1 to 3 do
      out := Trace.span ~group:name name (fun () ->
          Sac.Vm.run_fun ctx "step_dt" (args !out))
    done;
    (now_s () -. t0, !out)
  in
  let on_s, on_q = time_steps ~kernels:true in
  let off_s, off_q = time_steps ~kernels:false in
  check "VM kernels on and off agree"
    (if Tensor.Nd.max_abs_diff (Sac.Value.to_tensor on_q)
          (Sac.Value.to_tensor off_q) = 0.
     then Ok ()
     else Error "states differ");
  metric "sac.kernels_off_slowdown" (off_s /. on_s)

let run_solver wl ~seed ~seconds ~traced =
  let input = Gen.solver ~seed in
  let rl, ul, pl = input.Gen.left and rr, ur, pr = input.Gen.right in
  Printf.printf
    "input: mach %.6f, sod left (%.6f, %.6f, %.6f) right (%.6f, %.6f, %.6f)\n%!"
    input.Gen.mach rl ul pl rr ur pr;
  Trace.recording := traced;
  let s, reps = setup wl input in
  let inst = s.inst in
  Printf.printf "%s on %s, %d cells, exec %s\n%!" wl.backend
    (Engine.Backend.name inst) (cells inst)
    (Parallel.Exec.describe (Engine.Backend.exec inst));
  let min_steps = Stats.min_samples 90. in
  if not traced then begin
    let step_ns = timed_steps inst ~min_steps ~seconds in
    metric ~n:setup_reps "setup_s" (median_of (fun s -> s.total_s) reps);
    metric "peak_rss_mb" (peak_rss_mb ());
    report_steps inst ~step_ns;
    Parallel.Exec.shutdown (Engine.Backend.exec inst);
    oracle wl input inst ~seq:None
  end
  else begin
    metric ~n:setup_reps "engine.create_ms"
      (1e3 *. median_of (fun s -> s.create_s) reps);
    metric ~n:setup_reps "engine.warmup_ms"
      (1e3 *. median_of (fun s -> s.warmup_s) reps);
    (* Untraced then traced, the same number of steps each, so their
       difference is the cost of tracing. *)
    Trace.recording := false;
    let plain = timed_steps inst ~min_steps:20 ~seconds:(seconds /. 2.) in
    let k = Array.length plain in
    Trace.recording := true;
    let notes0 = Engine.Backend.notes inst in
    traced_steps inst ~k;
    let notes1 = Engine.Backend.notes inst in
    let per_step x = x /. float_of_int k in
    let step_ns = durations "step" in
    let regions = arg_sum "step" "regions" in
    let p50 = Stats.median step_ns in
    metric ~n:k "trace.overhead_share"
      ((p50 -. Stats.median plain) /. Stats.median plain);
    metric "parallel.regions_per_step" (per_step regions);
    let in_regions =
      List.fold_left
        (fun acc r -> acc +. arg_sum "step" (region_key r))
        0. (region_kinds wl)
    in
    metric "parallel.region_ms_per_step" (ms_of_ns (per_step in_regions));
    metric "parallel.outside_region_ms_per_step"
      (ms_of_ns (per_step (Stats.sum step_ns -. in_regions)));
    metric ~n:k "engine.dt_ms_per_step"
      (ms_of_ns (Stats.mean (durations "engine.Backend.dt")));
    metric ~n:k "engine.step_dt_ms_per_step"
      (ms_of_ns (Stats.mean (durations "engine.Backend.step_dt")));
    let bucket r = ms_of_ns (per_step (arg_sum "step" (region_key r))) in
    (match wl.layer with
     | `Euler -> ()
     | `Fortran_baseline ->
       metric "fortran_baseline.rhs_ms_per_step" (bucket Parallel.Exec.Rhs);
       metric "fortran_baseline.combine_ms_per_step"
         (bucket Parallel.Exec.Rk_combine);
       metric "fortran_baseline.bc_ms_per_step" (bucket Parallel.Exec.Bc)
     | `Sac ->
       let d key =
         per_step
           (Option.value (List.assoc_opt key notes1) ~default:0.
           -. Option.value (List.assoc_opt key notes0) ~default:0.)
       in
       metric "sac.with_loops_per_step" (d "with-loops");
       metric "sac.folds_per_step" (d "folds");
       metric "sac.fold_kernel_share"
         (if d "folds" > 0. then d "fold-kernels" /. d "folds" else 0.));
    Trace.recording := false;
    (* Sequential baseline.  For the bitwise oracle it replays every
       step the measured instance took; otherwise a short run does. *)
    let seq_steps =
      match wl.oracle with
      | `Sequential -> Engine.Backend.steps inst - 1
      | `Reference _ -> min k 100
    in
    let seq = sequential_pass wl input ~steps:seq_steps in
    let seq_p50 = Stats.median seq.seq_step_ns in
    metric ~n:seq_steps "parallel.speedup_2_lanes" (seq_p50 /. p50);
    let model =
      Parallel.Cost_model.predict_step Parallel.Cost_model.default
        (Engine.Backend.cost_scheduler inst)
        { Parallel.Cost_model.serial_s = 0.;
          parallel_s = seq_p50 /. 1e9;
          regions_per_step = per_step regions }
        ~cores:2
    in
    metric "parallel.model_rel_err" ((model -. p50 /. 1e9) /. (p50 /. 1e9));
    (match wl.layer with
     | `Euler -> report_euler ~bucket_ms:bucket ~words:seq.seq_minor_words
     | `Fortran_baseline ->
       metric "fortran_baseline.minor_words_per_step" seq.seq_minor_words;
       (* The euler layer on the same problem: the reference solver's
          sequential pass. *)
       let r = sequential_pass ~backend:"reference" wl input ~steps:(min k 100) in
       report_euler
         ~bucket_ms:(fun reg -> ms_of_ns (r.seq_bucket_ns reg))
         ~words:r.seq_minor_words
     | `Sac ->
       metric "sac.minor_words_per_step" seq.seq_minor_words;
       Trace.recording := true;
       sac_layers inst;
       Trace.recording := false);
    Parallel.Exec.shutdown (Engine.Backend.exec inst);
    oracle wl input inst ~seq:(Some seq)
  end

(* ---------------------------------------------------------------- *)
(* fleet-open *)

(* Offered load and latency limit, fixed here and recorded in
   BENCHMARK.json: about a ninth of the drain capacity measured with
   --workload fleet-capacity on a 2-core host.  At a fifth of it, a
   slower host queued enough light jobs to push the median turnaround
   from the light jobs' cluster onto the edge of the slow one. *)
let fleet_rate = 3.
let fleet_p90_limit_s = 0.5
let fleet_slice = 20

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let warm_jobs ~rep =
  List.map
    (fun k ->
      Gen.job ~id:(Printf.sprintf "warm%d-%s" rep (Gen.kind_name k))
        ~submitter:"warm" k)
    Gen.kinds

type fleet_setup = {
  inbox : Fleet.Inbox.t;
  cfg : Fleet.Scheduler.config;
  f_total_s : float;
}

(* Inbox and lane-pool start-up, then one job of every kind drained so
   that lazily built code paths are warm.  The pool has one lane: on the
   2-vCPU host, 2-lane compute switches between two speeds, and the
   fleet's subject is its queue, inbox and checkpoints. *)
let fleet_setup_once ~dir ~rep =
  let group = Printf.sprintf "setup-%d" rep in
  Trace.span ~group "setup" (fun () ->
      let t0 = now_s () in
      let inbox =
        Trace.span ~group "fleet.Inbox.make" (fun () ->
            Fleet.Inbox.make (Filename.concat dir (Printf.sprintf "inbox%d" rep)))
      in
      let exec = Parallel.Exec.spmd ~lanes:1 in
      let cfg =
        Fleet.Scheduler.config ~exec ~slice_steps:fleet_slice
          ~ckpt_root:(Fleet.Inbox.ckpt_root inbox) ()
      in
      let q = Fleet.Queue.create () in
      List.iter (Fleet.Queue.submit q) (warm_jobs ~rep);
      let outs =
        Trace.span ~group "fleet.warmup" (fun () -> Fleet.Scheduler.drain cfg q)
      in
      List.iter
        (fun (o : Fleet.Scheduler.outcome) ->
          match o.Fleet.Scheduler.status with
          | Fleet.Scheduler.Done -> ()
          | Fleet.Scheduler.Failed msg ->
            check ("warm-up job " ^ o.Fleet.Scheduler.job.Fleet.Job.id) (Error msg))
        outs;
      { inbox; cfg; f_total_s = now_s () -. t0 })

type fleet_obs = {
  turnaround : float array;
  waits : float array;
  lags : float array;
  outcomes : Fleet.Scheduler.outcome list;
  batch_sizes : float array;
  saves : int;
}

(* The open loop: jobs come due on the generated schedule whatever the
   engine is doing.  Due jobs are submitted and claimed through the
   inbox at the top of every drain round, as the serve loop does, and
   each job's clock starts at its due time. *)
let open_loop (fs : fleet_setup) (arrivals : Gen.arrival array) ~deadline =
  let n = Array.length arrivals in
  let q = Fleet.Queue.create () in
  let t_start = now_s () in
  let due i = t_start +. arrivals.(i).Gen.due_s in
  let index = Hashtbl.create n in
  Array.iteri (fun i a -> Hashtbl.replace index a.Gen.job.Fleet.Job.id i) arrivals;
  let ready = Hashtbl.create n in
  let turnaround = ref [] and waits = ref [] and lags = ref [] in
  let outcomes = ref [] and saves = ref 0 in
  let next = ref 0 and settled = ref 0 in
  let settle id =
    incr settled;
    match Hashtbl.find_opt index id with
    | Some i -> turnaround := (now_s () -. due i) :: !turnaround
    | None -> ()
  in
  let submit_due () =
    let t = now_s () in
    while !next < n && due !next <= t do
      let a = arrivals.(!next) in
      let id = a.Gen.job.Fleet.Job.id in
      ignore
        (Trace.span ~group:id "fleet.Inbox.submit" (fun () ->
             Fleet.Inbox.submit fs.inbox a.Gen.job));
      lags := (now_s () -. due !next) :: !lags;
      Hashtbl.replace ready id (due !next);
      incr next
    done;
    let jobs, bad =
      Trace.span ~group:"claim" "fleet.Inbox.claim" (fun () ->
          Fleet.Inbox.claim fs.inbox)
    in
    List.iter
      (fun (id, msg) ->
        (* Counted as failed by the result check, which sees its status. *)
        check ("job " ^ id ^ " parses") (Error msg);
        Fleet.Inbox.finalize fs.inbox ~id [ ("status", "failed"); ("error", msg) ];
        settle id)
      bad;
    List.iter (Fleet.Queue.submit q) jobs
  in
  let round = ref None and round_jobs = ref 0 and batches = ref [] in
  let close_round () =
    if !round_jobs > 0 then batches := float_of_int !round_jobs :: !batches;
    round_jobs := 0;
    match !round with
    | Some o -> Trace.stop o; round := None
    | None -> ()
  in
  let before_round () =
    close_round ();
    if !Trace.recording then round := Some (Trace.start ~group:"round" "fleet.round");
    submit_due ()
  in
  let on_event = function
    | Fleet.Scheduler.Dispatched (job, _) ->
      incr round_jobs;
      (match Hashtbl.find_opt ready job.Fleet.Job.id with
       | Some t -> waits := (now_s () -. t) :: !waits
       | None -> ())
    | Fleet.Scheduler.Preempted (job, _) ->
      incr saves;
      Hashtbl.replace ready job.Fleet.Job.id (now_s ())
    | Fleet.Scheduler.Completed o ->
      let id = o.Fleet.Scheduler.job.Fleet.Job.id in
      (match o.Fleet.Scheduler.status with
       | Fleet.Scheduler.Done -> incr saves
       | Fleet.Scheduler.Failed _ -> ());
      Trace.span ~group:id "fleet.Inbox.finalize" (fun () ->
          Fleet.Inbox.finalize fs.inbox ~id (Fleet.Scheduler.outcome_kv o));
      outcomes := o :: !outcomes;
      settle id
  in
  while !settled < n && now_s () < deadline do
    submit_due ();
    if Fleet.Queue.is_empty q then begin
      if !next < n then Unix.sleepf (Float.max 0. (due !next -. now_s ()))
    end
    else begin
      ignore (Fleet.Scheduler.drain ~on_event ~before_round fs.cfg q);
      close_round ()
    end
  done;
  if !settled < n then
    check "open loop finished before its deadline"
      (Error (Printf.sprintf "%d of %d jobs settled" !settled n));
  attempted := !attempted + n;
  { turnaround = Array.of_list !turnaround;
    waits = Array.of_list !waits;
    lags = Array.of_list !lags;
    outcomes = List.rev !outcomes;
    batch_sizes = Array.of_list !batches;
    saves = !saves }

(* Every job done, once, at its target; and one job of every kind,
   picked by the seed, re-run uninterrupted must reproduce its final
   checkpoint byte for byte. *)
let fleet_oracle (fs : fleet_setup) (arrivals : Gen.arrival array) obs ~seed =
  let expected =
    Array.to_list
      (Array.map
         (fun a ->
           ( a.Gen.job.Fleet.Job.id,
             match a.Gen.job.Fleet.Job.target with
             | Fleet.Job.Steps s -> s
             | Fleet.Job.Until _ -> -1 ))
         arrivals)
  in
  let results = Fleet.Inbox.results fs.inbox in
  let bad =
    List.filter
      (fun (id, steps) ->
        Result.is_error (Oracle.fleet_results ~expected:[ (id, steps) ] ~results))
      expected
  in
  failed := !failed + List.length bad;
  check
    (Printf.sprintf "%d jobs done once at their targets" (List.length expected))
    (Oracle.fleet_results ~expected ~results);
  let st = Gen.rng ~seed 3 in
  List.iter
    (fun kind ->
      let of_kind =
        List.filter
          (fun (o : Fleet.Scheduler.outcome) ->
            Array.exists
              (fun a ->
                a.Gen.kind = kind
                && a.Gen.job.Fleet.Job.id = o.Fleet.Scheduler.job.Fleet.Job.id)
              arrivals)
          obs.outcomes
        |> Array.of_list
      in
      if Array.length of_kind > 0 then begin
        let o = of_kind.(Random.State.int st (Array.length of_kind)) in
        let job = o.Fleet.Scheduler.job in
        let verdict =
          match o.Fleet.Scheduler.final_ckpt with
          | None -> Error "no final checkpoint"
          | Some path ->
            let inst =
              Engine.Registry.create ~exec:(Parallel.Exec.sequential ())
                ~config:(Fleet.Job.config job) job.Fleet.Job.backend
                (Fleet.Job.problem job)
            in
            ignore (Engine.Run.run_steps inst o.Fleet.Scheduler.steps);
            let actual = Persist.Snapshot.encode (Engine.Backend.snapshot inst) in
            let expected = In_channel.with_open_bin path In_channel.input_all in
            Oracle.same_bytes ~id:job.Fleet.Job.id ~expected ~actual
        in
        if Result.is_error verdict then incr failed;
        check
          (Printf.sprintf "%s %s re-run uninterrupted equals its final checkpoint"
             (Gen.kind_name kind) job.Fleet.Job.id)
          verdict
      end)
    Gen.kinds

(* At least 100 jobs, so p90 turnaround keeps 10 samples beyond it. *)
let jobs_for ~seconds =
  max (Stats.min_samples 90.) (int_of_float (ceil (fleet_rate *. seconds)))

let fleet_setup_reps = 9

(* Cell updates per second of job compute, with each kind's jobs taken
   at that kind's median per-job rate: a few jobs slowed by the host
   move it less than a ratio of sums over all jobs. *)
let fleet_cells_per_s (arrivals : Gen.arrival array) outcomes =
  let kind_of = Hashtbl.create (Array.length arrivals) in
  Array.iter
    (fun a -> Hashtbl.replace kind_of a.Gen.job.Fleet.Job.id a.Gen.kind)
    arrivals;
  let work (o : Fleet.Scheduler.outcome) =
    float_of_int (o.Fleet.Scheduler.steps_run * o.Fleet.Scheduler.cells)
  in
  let work_all, wall_all =
    List.fold_left
      (fun (w, t) kind ->
        match
          List.filter
            (fun (o : Fleet.Scheduler.outcome) ->
              Hashtbl.find_opt kind_of o.Fleet.Scheduler.job.Fleet.Job.id
              = Some kind)
            outcomes
        with
        | [] -> (w, t)
        | of_kind ->
          let wk = List.fold_left (fun acc o -> acc +. work o) 0. of_kind in
          let rate =
            median_of
              (fun (o : Fleet.Scheduler.outcome) -> work o /. o.Fleet.Scheduler.wall_s)
              of_kind
          in
          (w +. wk, t +. (wk /. rate)))
      (0., 0.) Gen.kinds
  in
  work_all /. wall_all

let report_fleet arrivals obs =
  let n = List.length obs.outcomes in
  let ms = Array.of_list (List.map Fleet.Scheduler.ms_per_step obs.outcomes) in
  metric ~n "step_ms_p50" (Stats.median ms);
  note ~n "step_ms_p90" (Stats.tail 90. ms) "ms";
  metric ~n "cells_per_s" (fleet_cells_per_s arrivals obs.outcomes);
  let n = Array.length obs.turnaround in
  let p90 = Stats.tail 90. obs.turnaround in
  metric ~n "turnaround_s_p50" (Stats.median obs.turnaround);
  note ~n "turnaround_s_p90" p90 "s";
  Printf.printf "  turnaround p90 %.3f s against the %.3f s limit: %s\n%!" p90
    fleet_p90_limit_s (if p90 <= fleet_p90_limit_s then "met" else "missed")

(* Resume and save timed by the benchmark's own calls, on the final
   checkpoints of up to [sample] finished jobs. *)
let persist_layers (fs : fleet_setup) obs ~dir =
  let sample = 20 in
  let save = ref [] and resume = ref [] and bytes = ref [] in
  List.iteri
    (fun i (o : Fleet.Scheduler.outcome) ->
      if i < sample && o.Fleet.Scheduler.status = Fleet.Scheduler.Done then begin
        let job = o.Fleet.Scheduler.job in
        let group = job.Fleet.Job.id in
        let t0 = now_s () in
        let resumed =
          Trace.span ~group "engine.Registry.resume_latest" (fun () ->
              Engine.Registry.resume_latest ~exec:(Parallel.Exec.sequential ())
                ~tiles:job.Fleet.Job.tiles
                ~dir:(Fleet.Scheduler.ckpt_dir fs.cfg job)
                (Fleet.Job.problem job))
        in
        let t1 = now_s () in
        match resumed with
        | None -> check ("resume " ^ group) (Error "no checkpoint")
        | Some (_, inst) ->
          let snap = Engine.Backend.snapshot inst in
          let t2 = now_s () in
          let _, size =
            Trace.span ~group "persist.Checkpoint.save" (fun () ->
                Persist.Checkpoint.save ~dir:(Filename.concat dir group) snap)
          in
          let t3 = now_s () in
          resume := (t1 -. t0) :: !resume;
          save := (t3 -. t2) :: !save;
          bytes := float_of_int size :: !bytes
      end)
    obs.outcomes;
  let n = List.length !save in
  metric ~n "persist.save_ms_p50" (1e3 *. median_of Fun.id !save);
  metric ~n "persist.resume_ms_p50" (1e3 *. median_of Fun.id !resume);
  metric ~n "persist.bytes_per_save" (Stats.mean (Array.of_list !bytes))

let run_fleet ~seed ~seconds ~traced ~dir =
  Trace.recording := traced;
  let reps = List.init fleet_setup_reps (fun rep -> fleet_setup_once ~dir ~rep) in
  Trace.recording := false;
  let fs = List.nth reps (fleet_setup_reps - 1) in
  List.iteri
    (fun i s ->
      if i < fleet_setup_reps - 1 then
        Parallel.Exec.shutdown s.cfg.Fleet.Scheduler.exec)
    reps;
  let deadline = now_s () +. (6. *. seconds) +. 60. in
  let plan ~jobs ~prefix =
    Array.of_list (Gen.fleet ~seed ~rate:fleet_rate ~jobs ~prefix)
  in
  let jobs = jobs_for ~seconds in
  Printf.printf "open loop at %.1f jobs/s, slice %d steps\n%!" fleet_rate
    fleet_slice;
  if not traced then begin
    let arrivals = plan ~jobs ~prefix:"j" in
    let obs = open_loop fs arrivals ~deadline in
    metric ~n:fleet_setup_reps "setup_s" (median_of (fun s -> s.f_total_s) reps);
    metric "peak_rss_mb" (peak_rss_mb ());
    report_fleet arrivals obs;
    fleet_oracle fs arrivals obs ~seed
  end
  else begin
    (* The untraced loop only gives the base of trace.overhead_share, a
       median: half the jobs are enough. *)
    let plain = plan ~jobs:(jobs / 2) ~prefix:"u" in
    let plain_obs = open_loop fs plain ~deadline in
    Trace.recording := true;
    let arrivals = plan ~jobs ~prefix:"j" in
    let obs = open_loop fs arrivals ~deadline in
    Trace.recording := false;
    let jobs = float_of_int (List.length obs.outcomes) in
    let n = List.length obs.outcomes in
    metric ~n "trace.overhead_share"
      ((Stats.median obs.turnaround -. Stats.median plain_obs.turnaround)
      /. Stats.median plain_obs.turnaround);
    metric ~n:(Array.length obs.waits) "fleet.queue_wait_s_p50"
      (Stats.median obs.waits);
    metric ~n:(Array.length obs.waits) "fleet.queue_wait_s_p90"
      (Stats.tail 90. obs.waits);
    (* A drain round's self time is the scheduler's busy time: rebuild,
       steps and checkpoint, without the inbox calls nested in it. *)
    let busy_ns =
      List.fold_left
        (fun acc (s, self) ->
          if s.Trace.name = "fleet.round" then acc +. self else acc)
        0. (Trace.self_times (Trace.spans ()))
    in
    metric ~n "fleet.compute_s_per_job" (busy_ns /. 1e9 /. jobs);
    metric ~n:(Array.length obs.batch_sizes) "fleet.batch_jobs_mean"
      (Stats.mean obs.batch_sizes);
    metric ~n "fleet.preemptions_per_job"
      (Stats.mean
         (Array.of_list
            (List.map
               (fun (o : Fleet.Scheduler.outcome) ->
                 float_of_int o.Fleet.Scheduler.preemptions)
               obs.outcomes)));
    let inbox_ns =
      List.fold_left
        (fun acc name -> acc +. Stats.sum (durations name))
        0.
        [ "fleet.Inbox.submit"; "fleet.Inbox.claim"; "fleet.Inbox.finalize" ]
    in
    metric ~n "fleet.inbox_ms_per_job" (ms_of_ns inbox_ns /. jobs);
    metric ~n "persist.saves_per_job" (float_of_int obs.saves /. jobs);
    metric ~n:(Array.length obs.lags) "loadgen.lag_s_p90" (Stats.tail 90. obs.lags);
    Trace.recording := true;
    persist_layers fs obs ~dir;
    Trace.recording := false;
    fleet_oracle fs plain plain_obs ~seed;
    fleet_oracle fs arrivals obs ~seed
  end;
  Parallel.Exec.shutdown fs.cfg.Fleet.Scheduler.exec

(* Drain capacity: one block-proportioned batch submitted at once and
   drained closed-loop.  The open loop offers about a fifth of this. *)
let fleet_capacity ~seed ~dir =
  let fs = fleet_setup_once ~dir ~rep:0 in
  let arrivals = Gen.fleet ~seed ~rate:1e9 ~jobs:130 ~prefix:"c" in
  let q = Fleet.Queue.create () in
  List.iter (fun a -> Fleet.Queue.submit q a.Gen.job) arrivals;
  let t0 = now_s () in
  let outs = Fleet.Scheduler.drain fs.cfg q in
  let wall = now_s () -. t0 in
  Printf.printf "drained %d jobs in %.3f s: capacity %.2f jobs/s\n%!"
    (List.length outs) wall (float_of_int (List.length outs) /. wall);
  List.iter
    (fun k ->
      let of_kind =
        List.filter
          (fun (o : Fleet.Scheduler.outcome) ->
            List.exists
              (fun a -> a.Gen.kind = k && a.Gen.job == o.Fleet.Scheduler.job)
              arrivals)
          outs
      in
      Printf.printf "  %-15s %3d jobs, mean compute %.4f s, mean %.4f ms/step\n"
        (Gen.kind_name k) (List.length of_kind)
        (Stats.mean
           (Array.of_list
              (List.map (fun (o : Fleet.Scheduler.outcome) -> o.Fleet.Scheduler.wall_s) of_kind)))
        (Stats.mean (Array.of_list (List.map Fleet.Scheduler.ms_per_step of_kind))))
    Gen.kinds;
  Parallel.Exec.shutdown fs.cfg.Fleet.Scheduler.exec

(* ---------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME fig3-channel | fig4-fortran | sod-vm | fleet-open | fleet-capacity");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  let out = "perfbench_out" in
  Persist.Checkpoint.mkdir_p out;
  let dir =
    Filename.concat out (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ()))
  in
  Persist.Checkpoint.mkdir_p dir;
  Printf.printf "workload %s, seed %d, %.1f s, trace %d\n%!" !workload !seed
    !seconds !trace;
  let run () =
    match !workload with
    | "fig3-channel" -> run_solver fig3 ~seed:!seed ~seconds:!seconds ~traced
    | "fig4-fortran" -> run_solver fig4 ~seed:!seed ~seconds:!seconds ~traced
    | "sod-vm" -> run_solver sod_vm ~seed:!seed ~seconds:!seconds ~traced
    | "fleet-open" -> run_fleet ~seed:!seed ~seconds:!seconds ~traced ~dir
    | "fleet-capacity" ->
      fleet_capacity ~seed:!seed ~dir;
      rm_rf dir;
      exit 0
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      rm_rf dir;
      exit 2
  in
  (match run () with
   | () -> ()
   | exception e ->
     incr failed;
     check "workload ran to the end" (Error (Printexc.to_string e)));
  rm_rf dir;
  if traced then begin
    let path =
      Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
    in
    Trace.write_chrome ~path (Trace.spans ());
    Printf.printf "trace: %s (%d spans)\n%!" path (List.length (Trace.spans ()))
  end;
  print_endline (result_line ~traced);
  exit (if !failures = [] then 0 else 1)
