(* In-memory span recorder for the traced benchmark run.

   Spans wrap the benchmark's own calls into each layer; nothing inside
   the program is instrumented.  Each span has a name, a start and end
   on the monotonic clock, the span that was open when it started (its
   parent), and a group shared by the spans of one step or one job.
   Spans are kept in memory and written as Chrome trace-event JSON when
   the run ends.  With recording off, [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  group : string;
  parent : int;  (* -1 at the root *)
  t0 : float;  (* ns *)
  t1 : float;
  args : (string * float) list;
}

type opened = { o_id : int; o_name : string; o_group : string; o_parent : int; o_t0 : float }

let recording = ref false
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let start ?(group = "") name =
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let id = !next_id in
  incr next_id;
  stack := id :: !stack;
  { o_id = id; o_name = name; o_group = group; o_parent = parent;
    o_t0 = Parallel.Clock.now_ns () }

(* Closes [o] and every span opened inside it that is still open. *)
let stop ?(args = []) o =
  let t1 = Parallel.Clock.now_ns () in
  let rec pop = function
    | id :: rest when id = o.o_id -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  stack := pop !stack;
  finished :=
    { id = o.o_id; name = o.o_name; group = o.o_group; parent = o.o_parent;
      t0 = o.o_t0; t1; args }
    :: !finished

let span ?group name f =
  if not !recording then f ()
  else begin
    let o = start ?group name in
    match f () with
    | v -> stop o; v
    | exception e -> stop o; raise e
  end

let spans () = List.rev !finished

let duration s = s.t1 -. s.t0

(* Length of the part of [t0, t1] covered by the union of [intervals]
   (which may overlap each other or stick out of the window). *)
let covered ~t0 ~t1 intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a t0 and b = Float.min b t1 in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A layer's self time: its span minus the part its children cover. *)
let self_time ~t0 ~t1 children = t1 -. t0 -. covered ~t0 ~t1 children

let self_times spans =
  let kids = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.t0, s.t1))
    spans;
  List.map
    (fun s -> (s, self_time ~t0:s.t0 ~t1:s.t1 (Hashtbl.find_all kids s.id)))
    spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span); Perfetto and chrome://tracing open it as is. *)
let write_chrome ~path spans =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      let args =
        ("id", string_of_int s.id) :: ("parent", string_of_int s.parent)
        :: ("group", json_string s.group)
        :: List.map (fun (k, v) -> (k, json_float v)) s.args
      in
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}"
        (json_string s.name) (json_string s.group)
        ((s.t0 -. origin) /. 1e3) (duration s /. 1e3)
        (String.concat ","
           (List.map (fun (k, v) -> json_string k ^ ":" ^ v) args)))
    spans;
  output_string oc "],\"displayTimeUnit\":\"ms\"}\n";
  close_out oc
