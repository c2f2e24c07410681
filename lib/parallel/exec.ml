type kind =
  | Sequential
  | Spmd of Pool.t
  | Fork_join_sched of int

type region = Rhs | Bc | Halo | Reduce | Rk_combine | Other

let region_name = function
  | Rhs -> "rhs"
  | Bc -> "bc"
  | Halo -> "halo"
  | Reduce -> "reduce"
  | Rk_combine -> "rk-combine"
  | Other -> "other"

let all_regions = [ Rhs; Bc; Halo; Reduce; Rk_combine; Other ]

let region_index = function
  | Rhs -> 0
  | Bc -> 1
  | Halo -> 2
  | Reduce -> 3
  | Rk_combine -> 4
  | Other -> 5

type bucket = {
  count : int;
  total_ns : float;
  max_ns : float;
  minor_words : float;
  promoted_words : float;
}

(* Buckets are mutated without synchronisation: regions are always
   issued from the orchestrating domain (workers run *inside* a
   region, they never open one), so there is a single writer.  The GC
   counters are likewise sampled on the orchestrating domain only; in
   OCaml 5 they are domain-local, so under a parallel exec they cover
   lane 0's share of the work — exact for [sequential], which is the
   instrumentation pass. *)
type slot = {
  mutable b_count : int;
  mutable b_total_ns : float;
  mutable b_max_ns : float;
  mutable b_minor_words : float;
  mutable b_promoted_words : float;
}

type phase = {
  region : region;
  lo : int;
  hi : int;
  body : lane:int -> int -> unit;
}

(* Per-lane reduction slots are spread [lane_pad] floats apart so two
   lanes' running accumulators never share a cache line (8 floats =
   64 bytes). *)
let lane_pad = 8

type t = {
  kind : kind;
  count : int Atomic.t;
  slots : slot array; (* indexed by region_index *)
  workspace : Workspace.t;
  partials : float array; (* lanes * lane_pad reduction slots *)
}

let make_slots () =
  Array.init (List.length all_regions) (fun _ ->
      { b_count = 0;
        b_total_ns = 0.;
        b_max_ns = 0.;
        b_minor_words = 0.;
        b_promoted_words = 0. })

let make kind ~lanes =
  { kind;
    count = Atomic.make 0;
    slots = make_slots ();
    workspace = Workspace.create ~lanes ();
    partials = Array.make (lanes * lane_pad) 0. }

let sequential () = make Sequential ~lanes:1

let spmd ~lanes = make (Spmd (Pool.create ~lanes)) ~lanes

let fork_join ~lanes =
  if lanes < 1 then invalid_arg "Exec.fork_join: lanes must be >= 1";
  make (Fork_join_sched lanes) ~lanes

let lanes t =
  match t.kind with
  | Sequential -> 1
  | Spmd pool -> Pool.lanes pool
  | Fork_join_sched n -> n

let workspace t = t.workspace

let record t region ns minor promoted =
  let s = t.slots.(region_index region) in
  s.b_count <- s.b_count + 1;
  s.b_total_ns <- s.b_total_ns +. ns;
  if ns > s.b_max_ns then s.b_max_ns <- ns;
  s.b_minor_words <- s.b_minor_words +. minor;
  s.b_promoted_words <- s.b_promoted_words +. promoted

let timed t region f =
  let m0, p0, _ = Gc.counters () in
  let t0 = Clock.now_ns () in
  let r = f () in
  let ns = Clock.now_ns () -. t0 in
  let m1, p1, _ = Gc.counters () in
  record t region ns (m1 -. m0) (p1 -. p0);
  r

let parallel_for_lanes ?schedule ?(region = Other) t ~lo ~hi body =
  if hi > lo then begin
    Atomic.incr t.count;
    let m0, p0, _ = Gc.counters () in
    let t0 = Clock.now_ns () in
    (match t.kind with
     | Sequential ->
       for i = lo to hi - 1 do
         body ~lane:0 i
       done
     | Spmd pool -> Pool.parallel_for_lanes ?schedule pool ~lo ~hi body
     | Fork_join_sched n ->
       (* The fork/join backend models OpenMP static scheduling only;
          a dynamic request falls back to static. *)
       Fork_join.parallel_for_lanes ~lanes:n ~lo ~hi body);
    let ns = Clock.now_ns () -. t0 in
    let m1, p1, _ = Gc.counters () in
    record t region ns (m1 -. m0) (p1 -. p0)
  end

let parallel_for ?schedule ?region t ~lo ~hi body =
  parallel_for_lanes ?schedule ?region t ~lo ~hi (fun ~lane:_ i -> body i)

(* One lane's static share of one phase. *)
let phase_chunk p ~lanes ~lane =
  if p.hi > p.lo then begin
    let r = Chunk.chunk_of ~lo:p.lo ~hi:p.hi ~parts:lanes ~which:lane in
    for i = r.Chunk.lo to r.Chunk.hi - 1 do
      p.body ~lane i
    done
  end

let parallel_phases t phases =
  let n = Array.length phases in
  if n > 0 then begin
    match t.kind with
    | Sequential ->
      (* The instrumentation pass: one region, phases timed back to
         back so the per-region buckets match what the SPMD dispatch
         attributes. *)
      Atomic.incr t.count;
      Array.iter
        (fun p ->
          timed t p.region (fun () ->
              for i = p.lo to p.hi - 1 do
                p.body ~lane:0 i
              done))
        phases
    | Spmd pool ->
      (* The folded form: one dispatch, in-region barriers between
         phases.  Lane 0 crosses every barrier, so sampling the clock
         in the on_phase hook attributes each inter-barrier interval
         (work + barrier wait) to that phase's region. *)
      Atomic.incr t.count;
      let lanes = Pool.lanes pool in
      let m0, p0, _ = Gc.counters () in
      let last_t = ref (Clock.now_ns ())
      and last_m = ref m0
      and last_p = ref p0 in
      Pool.run_phases pool ~phases:n
        ~on_phase:(fun k ->
          let now = Clock.now_ns () in
          let m1, p1, _ = Gc.counters () in
          record t phases.(k).region (now -. !last_t) (m1 -. !last_m)
            (p1 -. !last_p);
          last_t := now;
          last_m := m1;
          last_p := p1)
        (fun ~phase ~lane -> phase_chunk phases.(phase) ~lanes ~lane)
    | Fork_join_sched lanes ->
      (* The OpenMP model cannot fold barriers: each phase pays its
         own fork/join region.  Keeping that cost visible is the
         point of the comparison. *)
      Array.iter
        (fun p ->
          if p.hi > p.lo then begin
            Atomic.incr t.count;
            let m0, p0, _ = Gc.counters () in
            let t0 = Clock.now_ns () in
            Fork_join.parallel_for_lanes ~lanes ~lo:p.lo ~hi:p.hi p.body;
            let ns = Clock.now_ns () -. t0 in
            let m1, p1, _ = Gc.counters () in
            record t p.region ns (m1 -. m0) (p1 -. p0)
          end)
        phases
  end

let parallel_reduce_lanes ?schedule ?(region = Reduce) t ~lo ~hi ~init
    ~combine body =
  if hi <= lo then init
  else begin
    Atomic.incr t.count;
    let m0, p0, _ = Gc.counters () in
    let t0 = Clock.now_ns () in
    let acc = t.partials in
    let parts = lanes t in
    for l = 0 to parts - 1 do
      acc.(l * lane_pad) <- init
    done;
    (match t.kind with
     | Sequential ->
       for i = lo to hi - 1 do
         body ~acc ~cell:0 ~lane:0 i
       done
     | Spmd pool ->
       Pool.parallel_for_lanes ?schedule pool ~lo ~hi (fun ~lane i ->
           body ~acc ~cell:(lane * lane_pad) ~lane i)
     | Fork_join_sched n ->
       Fork_join.parallel_for_lanes ~lanes:n ~lo ~hi (fun ~lane i ->
           body ~acc ~cell:(lane * lane_pad) ~lane i));
    let result = ref acc.(0) in
    for l = 1 to parts - 1 do
      result := combine !result acc.(l * lane_pad)
    done;
    let ns = Clock.now_ns () -. t0 in
    let m1, p1, _ = Gc.counters () in
    record t region ns (m1 -. m0) (p1 -. p0);
    !result
  end

let reduce_chunk body (r : Chunk.range) =
  let acc = ref Float.neg_infinity in
  for i = r.Chunk.lo to r.Chunk.hi - 1 do
    let v = body i in
    if v > !acc then acc := v
  done;
  !acc

let parallel_reduce_max ?(region = Reduce) t ~lo ~hi body =
  if hi <= lo then Float.neg_infinity
  else begin
    Atomic.incr t.count;
    let m0, p0, _ = Gc.counters () in
    let t0 = Clock.now_ns () in
    let result =
      match t.kind with
      | Sequential -> reduce_chunk body { Chunk.lo; hi }
      | Spmd pool ->
        let parts = Pool.lanes pool in
        let partial = Array.make parts Float.neg_infinity in
        Pool.run pool (fun lane ->
            partial.(lane) <-
              reduce_chunk body (Chunk.chunk_of ~lo ~hi ~parts ~which:lane));
        Array.fold_left Float.max Float.neg_infinity partial
      | Fork_join_sched parts ->
        (* Lane slots [lane_pad] floats apart, as in
           [parallel_reduce_lanes]; each lane folds its static chunk
           in index order, exactly as [reduce_chunk] does. *)
        let partial =
          Array.make (min parts (hi - lo) * lane_pad) Float.neg_infinity
        in
        Fork_join.parallel_for_lanes ~lanes:parts ~lo ~hi (fun ~lane i ->
            let v = body i in
            if v > partial.(lane * lane_pad) then
              partial.(lane * lane_pad) <- v);
        Array.fold_left Float.max Float.neg_infinity partial
    in
    let ns = Clock.now_ns () -. t0 in
    let m1, p1, _ = Gc.counters () in
    record t region ns (m1 -. m0) (p1 -. p0);
    result
  end

let regions t = Atomic.get t.count
let reset_regions t = Atomic.set t.count 0

let buckets t =
  List.filter_map
    (fun r ->
      let s = t.slots.(region_index r) in
      if s.b_count = 0 then None
      else
        Some
          ( r,
            { count = s.b_count;
              total_ns = s.b_total_ns;
              max_ns = s.b_max_ns;
              minor_words = s.b_minor_words;
              promoted_words = s.b_promoted_words } ))
    all_regions

let reset_buckets t =
  Array.iter
    (fun s ->
      s.b_count <- 0;
      s.b_total_ns <- 0.;
      s.b_max_ns <- 0.;
      s.b_minor_words <- 0.;
      s.b_promoted_words <- 0.)
    t.slots

let shutdown t =
  match t.kind with
  | Spmd pool -> Pool.shutdown pool
  | Sequential | Fork_join_sched _ -> ()

let describe t =
  match t.kind with
  | Sequential -> "sequential"
  | Spmd pool -> Printf.sprintf "spmd(%d)" (Pool.lanes pool)
  | Fork_join_sched n -> Printf.sprintf "fork-join(%d)" n
