(** Analytic multicore scaling model, calibrated from measured runs.

    The host has two cores, so only 2-lane figures are measured; the
    16-core wall-clock curves of the paper's Fig. 4 cannot be measured
    directly.  They are {e overhead-dominated} curves, though: what
    separates SaC from auto-parallelised Fortran in the paper is the
    per-parallel-region synchronisation cost (user-space spin barrier
    vs kernel-level fork/join) multiplied by how many regions each
    program executes per time step (few, because SaC fuses with-loops;
    many, because Fortran parallelises each loop nest separately).

    This module reproduces exactly that mechanism.  Inputs are all
    measured on the real code: the sequential wall clock per step and
    the instrumented region count per step (from {!Exec.regions}).
    Only the synchronisation constants are taken from published
    microbenchmark literature (EPCC OpenMP overheads, pthread
    spin-barrier costs on 2009-era Opterons); they are exposed as
    parameters so the sensitivity can be explored.

    The model for [p] cores is

    {[ T(p) = T_serial
            + T_par / min(p, bw_cap)
            + regions * overhead(p) ]}

    where [overhead(p) = base + slope * p] with per-scheduler
    constants, and [bw_cap] caps effective speedup at the memory
    bandwidth ceiling of the socket. *)

type params = {
  spin_base_s : float;
  (** Fixed cost of one spin-barrier region, seconds (~0.3 us). *)
  spin_slope_s : float;
  (** Additional spin-barrier cost per participating core, seconds
      (~0.05 us): cache-line bouncing on the flag. *)
  fork_base_s : float;
  (** Fixed cost of an OpenMP parallel region, seconds (~1.5 us):
      a full fork and join on a persistent team, from the EPCC
      microbenchmarks, against the spin barrier of SaC's runtime.
      This reproduction runs both schedulers on one team ({!Team}),
      so what separates them in measured runs is regions per step. *)
  fork_slope_s : float;
  (** Per-core region cost, seconds (~0.4 us): wake-ups and joins are
      serviced per worker. *)
  bandwidth_cap : float;
  (** Effective-speedup ceiling from shared memory bandwidth
      (the 16-core Opteron 8356 machine has 4 sockets; streaming
      kernels stop scaling around 10-12x). *)
}

val default : params

type scheduler = Spin_barrier | Os_fork_join

type workload = {
  serial_s : float;
  (** Measured non-parallelisable time per step, seconds. *)
  parallel_s : float;
  (** Measured parallelisable time per step at one core, seconds. *)
  regions_per_step : float;
  (** Instrumented number of parallel regions per step. *)
}

val overhead_per_region : params -> scheduler -> cores:int -> float
(** Synchronisation cost of one region at the given core count. *)

val predict_step : params -> scheduler -> workload -> cores:int -> float
(** Predicted wall-clock of one time step, seconds. *)

val predict_run :
  params -> scheduler -> workload -> steps:int -> cores:int -> float
(** Predicted wall-clock of a whole run. *)

val speedup :
  params -> scheduler -> workload -> cores:int -> float
(** [predict cores=1 / predict cores=n]. *)

val crossover :
  params ->
  fast_serial:scheduler * workload ->
  scalable:scheduler * workload ->
  max_cores:int ->
  int option
(** Smallest core count at which the [scalable] configuration's
    predicted run time drops below the [fast_serial] one's, if any —
    the Fig. 4 crossover where SaC overtakes Fortran. *)
