(* One process-wide hot team, as an OpenMP runtime keeps its threads:
   worker domains are spawned on first demand and then live for the
   rest of the program, waiting between regions.  Every region is
   still a full fork (publish the job, wake the workers) and join
   (wait for every participant) — only domain creation is gone. *)

(* A region as the team sees it.  The generation, the participant
   count and the body are published together in one immutable value:
   a worker that read them separately could, when lane counts vary
   between regions, run a region it is not part of or run one region
   twice. *)
type job = { gen : int; parts : int; run : int -> unit }

type worker = { asleep : bool Atomic.t; wake : Condition.t }

(* Spin budget before a waiting domain parks: about libgomp's default
   wait policy.  Back-to-back regions never reach the kernel; an idle
   team sleeps and burns no CPU. *)
let spin_ns = 100_000.

let regions = Atomic.make 0
let current = Atomic.make { gen = 0; parts = 0; run = ignore }

(* Held by the domain running a team region; a region issued while it
   is taken runs inline on its caller. *)
let busy = Atomic.make false
let finished = Atomic.make 0
let error = Atomic.make None
let lock = Mutex.create ()
let caller_asleep = Atomic.make false
let joined = Condition.create ()

(* Worker [i + 1] is [team.(i)].  Only the domain holding [busy] grows
   or reads it; a worker only ever touches its own record. *)
let team = ref [||]

(* [true] once [pred] holds, [false] if the spin budget ran out
   first. *)
let spin pred =
  let deadline = Clock.now_ns () +. spin_ns in
  let rec go () =
    pred ()
    || begin
      Domain.cpu_relax ();
      Clock.now_ns () < deadline && go ()
    end
  in
  go ()

(* The first exception of a region is parked here and re-raised by the
   caller after the join, as {!Pool.record_error} does. *)
let record_error exn =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set error None (Some (exn, bt)))

(* Parking protocol: a waiter sets its flag, then re-checks its
   condition; the releaser changes the condition, then reads the flag.
   Atomics are sequentially consistent, so at least one side sees the
   other and no wake-up is lost.  Both halves hold [lock], so a signal
   cannot slip in between the re-check and the wait. *)
let park flag cond ready =
  Mutex.lock lock;
  Atomic.set flag true;
  while not (ready ()) do
    Condition.wait cond lock
  done;
  Atomic.set flag false;
  Mutex.unlock lock

(* A worker sees only jobs newer than the last one it ran and that
   count it as a participant.  A region cannot complete without every
   participant, so a worker that skips generations only ever skips
   regions it was not part of. *)
let worker_loop w id seen =
  let seen = ref seen in
  while true do
    let ready () =
      let j = Atomic.get current in
      j.gen > !seen && id < j.parts
    in
    if not (spin ready) then park w.asleep w.wake ready;
    let j = Atomic.get current in
    seen := j.gen;
    (try j.run id with e -> record_error e);
    if Atomic.fetch_and_add finished 1 = j.parts - 2
       && Atomic.get caller_asleep
    then begin
      Mutex.lock lock;
      Condition.signal joined;
      Mutex.unlock lock
    end
  done

let grow n =
  while Array.length !team < n do
    let w = { asleep = Atomic.make false; wake = Condition.create () } in
    let id = Array.length !team + 1 in
    (* Read before the spawn: the region about to be published must
       be new to this worker. *)
    let seen = (Atomic.get current).gen in
    ignore (Domain.spawn (fun () -> worker_loop w id seen));
    team := Array.append !team [| w |]
  done

let wake parts =
  let ws = !team in
  let sleeping = ref false in
  for i = 0 to parts - 2 do
    if Atomic.get ws.(i).asleep then sleeping := true
  done;
  if !sleeping then begin
    Mutex.lock lock;
    for i = 0 to parts - 2 do
      if Atomic.get ws.(i).asleep then Condition.signal ws.(i).wake
    done;
    Mutex.unlock lock
  end

(* Called with [busy] held; releases it before re-raising. *)
let run_team parts chunk =
  (try grow (parts - 1)
   with e ->
     Atomic.set busy false;
     raise e);
  Atomic.set finished 0;
  Atomic.set current
    { gen = (Atomic.get current).gen + 1; parts; run = chunk };
  wake parts;
  (try chunk 0 with e -> record_error e);
  let all_in () = Atomic.get finished = parts - 1 in
  if not (spin all_in) then park caller_asleep joined all_in;
  Atomic.set busy false;
  match Atomic.exchange error None with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt

let parallel_for_lanes ~lanes ~lo ~hi body =
  if lanes < 1 then invalid_arg "Fork_join.parallel_for: lanes must be >= 1";
  if hi > lo then begin
    Atomic.incr regions;
    (* Clamp the team to the iteration count so short ranges do not
       wake workers that only ever see empty chunks. *)
    let lanes = min lanes (hi - lo) in
    if lanes = 1 || not (Atomic.compare_and_set busy false true) then
      for i = lo to hi - 1 do
        body ~lane:0 i
      done
    else
      run_team lanes (fun which ->
          let r = Chunk.chunk_of ~lo ~hi ~parts:lanes ~which in
          for i = r.Chunk.lo to r.Chunk.hi - 1 do
            body ~lane:which i
          done)
  end

let parallel_for ~lanes ~lo ~hi body =
  parallel_for_lanes ~lanes ~lo ~hi (fun ~lane:_ i -> body i)

let regions_executed () = Atomic.get regions
let reset_regions () = Atomic.set regions 0
let team_domains () = Array.length !team
