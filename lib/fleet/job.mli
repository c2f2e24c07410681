(** Job descriptors: everything the fleet needs to (re)materialise a
    simulation — backend, scenario, scheme overrides, resolution and
    a stopping target — as a value that survives a round trip through
    a ["key value"] file.

    A job carries the {e request}; runtime state (current step count,
    field data) lives in the job's checkpoint directory, so a
    preempted or crashed job is always rebuilt as
    [resume_latest || create] from the descriptor alone.  The job id
    doubles as the inbox file basename, hence the restricted
    alphabet. *)

exception Invalid of string
(** A descriptor that cannot be a job: bad id, unknown key, missing
    scenario, conflicting or absent target, unparsable value.  The
    message names the offence. *)

(** When a job is finished: after a fixed number of CFL steps (the
    paper's benchmark mode) or at a simulation time. *)
type target = Steps of int | Until of float

type t = {
  id : string;  (** unique within a queue/inbox; [[A-Za-z0-9._-]+] *)
  submitter : string;  (** fair-share accounting principal *)
  priority : int;  (** higher runs earlier {e within} a submitter *)
  backend : string;  (** {!Engine.Registry} key, e.g. ["reference"] *)
  scenario : string;  (** {!Engine.Scenario} key, e.g. ["sod"] *)
  nx : int option;  (** resolution override; scenario default if [None] *)
  ms : float option;  (** shock Mach override (two-channel) *)
  recon : Euler.Recon.kind option;  (** scheme overrides; the *)
  riemann : Euler.Riemann.kind option;  (** scenario's benchmark *)
  rk : Euler.Rk.kind option;  (** config where [None] *)
  cfl : float option;
  tiles : int * int;  (** domain decomposition, [(1, 1)] = monolithic *)
  target : target;
}

val valid_id : string -> bool

val make :
  ?submitter:string ->
  ?priority:int ->
  ?backend:string ->
  ?nx:int ->
  ?ms:float ->
  ?recon:Euler.Recon.kind ->
  ?riemann:Euler.Riemann.kind ->
  ?rk:Euler.Rk.kind ->
  ?cfl:float ->
  ?tiles:int * int ->
  id:string ->
  scenario:string ->
  target ->
  t
(** Defaults: submitter ["anon"], priority [0], backend
    ["reference"], no overrides, monolithic tiles.  Validates the id
    and shapes only — scenario/backend membership is checked at
    materialisation, so a bad name fails that one job, not the
    server.
    @raise Invalid on a malformed id or non-positive nx/tiles. *)

val scenario : t -> Engine.Scenario.t
(** @raise Invalid_argument on an unknown scenario name. *)

val problem : t -> Euler.Setup.problem
(** The scenario instantiated at the job's resolution. *)

val config : t -> Euler.Solver.config
(** The scenario's benchmark config with the job's overrides (and
    tiles) applied. *)

val to_kv : t -> (string * string) list
(** Descriptor as kv pairs (the id is {e not} included — the file
    name carries it). *)

val of_kv : id:string -> (string * string) list -> t
(** Inverse of {!to_kv}.  @raise Invalid on unknown/duplicate keys,
    missing scenario, zero or two targets, or unparsable values. *)

val save : path:string -> t -> unit
(** Atomically write the descriptor at [path]. *)

val load : id:string -> path:string -> t
(** @raise Invalid / [Kv.Malformed] / [Sys_error] as applicable. *)

val describe : t -> string
(** One human line: id, submitter, priority, backend/scenario,
    resolution, target. *)
