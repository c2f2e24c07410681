(* One process-wide hot team, as an OpenMP runtime keeps its threads:
   worker domains are spawned on first demand and then live for the
   rest of the program, waiting between regions.  Every region is
   still a full fork (publish the job, wake the workers) and join
   (wait for every participant) — only domain creation is gone. *)

(* A region as the team sees it.  The generation, the participant
   count and the body are published together in one immutable value:
   a worker that read them separately could, when part counts vary
   between regions, run a region it is not part of or run one region
   twice. *)
type job = { gen : int; parts : int; run : int -> unit }

type worker = { asleep : int Atomic.t; wake : Condition.t }

(* Spin budget before a waiting domain parks: about libgomp's default
   wait policy.  Back-to-back regions never reach the kernel; an idle
   team sleeps and burns no CPU. *)
let spin_ns = 100_000.

let current = Atomic.make { gen = 0; parts = 0; run = ignore }

(* Held by the domain running a team region; a region issued while it
   is taken runs inline on its caller. *)
let busy = Atomic.make false
let finished = Atomic.make 0
let error = Atomic.make None
let lock = Mutex.create ()
let caller_asleep = Atomic.make 0
let joined = Condition.create ()

(* In-region barrier state of [run_phases], reset at the start of
   every multi-phase region while no lane is between barriers, so a
   region that died mid-sequence cannot poison the next one. *)
let arrivals = Atomic.make 0
let sense = Atomic.make false
let barrier_asleep = Atomic.make 0
let released = Condition.create ()

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

(* A lane that raises must still reach the join (and every in-region
   barrier), or the whole team deadlocks; the first exception of a
   region is parked here and re-raised by the caller after the join. *)
let record_error exn =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set error None (Some (exn, bt)))

(* Parking protocol: a waiter counts itself in [sleepers], then
   re-checks its condition; the releaser changes the condition, then
   reads [sleepers].  Atomics are sequentially consistent, so at least
   one side sees the other and no wake-up is lost.  Both halves hold
   [lock], so a signal cannot slip in between the re-check and the
   wait. *)
let park sleepers cond ready =
  Mutex.lock lock;
  Atomic.incr sleepers;
  while not (ready ()) do
    Condition.wait cond lock
  done;
  Atomic.decr sleepers;
  Mutex.unlock lock

(* Waits for [ready], spinning first and parking once the spin budget
   runs out. *)
let await sleepers cond ready =
  if not (spin ready) then park sleepers cond ready

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
    await w.asleep w.wake ready;
    let j = Atomic.get current in
    seen := j.gen;
    (try j.run id with e -> record_error e);
    if Atomic.fetch_and_add finished 1 = j.parts - 2
       && Atomic.get caller_asleep > 0
    then begin
      Mutex.lock lock;
      Condition.signal joined;
      Mutex.unlock lock
    end
  done

let grow n =
  while Array.length !team < n do
    let w = { asleep = Atomic.make 0; wake = Condition.create () } in
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
    if Atomic.get ws.(i).asleep > 0 then sleeping := true
  done;
  if !sleeping then begin
    Mutex.lock lock;
    for i = 0 to parts - 2 do
      if Atomic.get ws.(i).asleep > 0 then Condition.signal ws.(i).wake
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
  await caller_asleep joined (fun () -> Atomic.get finished = parts - 1);
  Atomic.set busy false;
  match Atomic.exchange error None with
  | None -> ()
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt

(* Takes the team for one region of [parts] lanes, or returns [false]
   if the region must run inline. *)
let claim parts = parts > 1 && Atomic.compare_and_set busy false true

let run ~parts f =
  if parts < 1 then invalid_arg "Team.run: parts must be >= 1";
  if claim parts then run_team parts f
  else
    for lane = 0 to parts - 1 do
      f lane
    done

(* One crossing of the in-region barrier.  Every lane calls this the
   same number of times per region; the last arriver resets the
   arrival count and flips the global sense, releasing the waiters.
   Waiting lanes spin, then park like idle workers, so a lane that
   shares a core with the one still working does not hold that core
   for a whole time slice.  Atomics are sequentially consistent in
   OCaml 5, so a lane observing the flipped sense also observes every
   plain write the other lanes made before their own arrival. *)
let phase_barrier parts local_sense =
  let s = not !local_sense in
  local_sense := s;
  if Atomic.fetch_and_add arrivals 1 = parts - 1 then begin
    Atomic.set arrivals 0;
    Atomic.set sense s;
    if Atomic.get barrier_asleep > 0 then begin
      Mutex.lock lock;
      Condition.broadcast released;
      Mutex.unlock lock
    end
  end
  else await barrier_asleep released (fun () -> Atomic.get sense = s)

let run_phases ~parts ~phases ?on_phase body =
  if parts < 1 then invalid_arg "Team.run_phases: parts must be >= 1";
  if phases < 0 then invalid_arg "Team.run_phases: negative phase count";
  let hook k = match on_phase with Some f -> f k | None -> () in
  if phases = 0 then ()
  else if claim parts then begin
    Atomic.set arrivals 0;
    Atomic.set sense false;
    run_team parts (fun lane ->
        let local_sense = ref false in
        for k = 0 to phases - 1 do
          (try body ~phase:k ~lane with e -> record_error e);
          if k < phases - 1 then begin
            phase_barrier parts local_sense;
            if lane = 0 then try hook k with e -> record_error e
          end
        done);
    (* The last phase's barrier is the region's join, reached only
       when no lane raised. *)
    hook (phases - 1)
  end
  else
    for k = 0 to phases - 1 do
      for lane = 0 to parts - 1 do
        body ~phase:k ~lane
      done;
      hook k
    done

let domains () = Array.length !team
