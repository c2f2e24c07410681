(** Bench artefacts: the [BENCH_*.json] files the harness writes, and
    the one floor table they are checked against. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite floats print as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** JSON; floats print with the fewest digits that read back bitwise. *)

val of_string : string -> (t, string) result
(** Reads what {!to_string} writes and nothing else; an error names the
    byte offset. *)

val parity_target : float
val fleet_speedup_floor : float
(** Floors the artefacts carry; each is written only in the table. *)

type outcome = {
  name : string;  (** the query measured, e.g. ["fold.par_speedup"] *)
  rule : string;  (** the bound it must meet, e.g. [">= 1.2"] *)
  measured : t;
  ok : bool;
  exempt : bool;  (** a quick artefact and a full-size-only predicate *)
}

val check : t -> (outcome list, string) result
(** Every predicate of the artefact's [schema]; an error if unknown. *)

val validate : string -> bool
(** Checks one file, printing each predicate with its measured value
    and each failure on stderr; [true] when none failed. *)

val write : string -> t -> bool
(** Writes an artefact and {!validate}s the file. *)
