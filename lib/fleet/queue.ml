type entry = { job : Job.t; rank : int }

type t = {
  mutable next_rank : int;
  ranks : (string, int) Hashtbl.t;  (* job id -> first submission rank *)
  pending : (string, entry list ref) Hashtbl.t;  (* submitter -> entries *)
  services : (string, float ref) Hashtbl.t;
}

let create () =
  { next_rank = 0;
    ranks = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    services = Hashtbl.create 16 }

let bucket t submitter =
  match Hashtbl.find_opt t.pending submitter with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add t.pending submitter r;
    r

let submit t (job : Job.t) =
  let buf = bucket t job.Job.submitter in
  if List.exists (fun e -> e.job.Job.id = job.Job.id) !buf then
    invalid_arg
      (Printf.sprintf "Fleet.Queue.submit: job %S already pending" job.Job.id);
  let rank =
    match Hashtbl.find_opt t.ranks job.Job.id with
    | Some r -> r
    | None ->
      let r = t.next_rank in
      t.next_rank <- r + 1;
      Hashtbl.add t.ranks job.Job.id r;
      r
  in
  buf := { job; rank } :: !buf

let service t submitter =
  match Hashtbl.find_opt t.services submitter with
  | Some r -> !r
  | None -> 0.

let charge t ~submitter units =
  match Hashtbl.find_opt t.services submitter with
  | Some r -> r := !r +. units
  | None -> Hashtbl.add t.services submitter (ref units)

(* Within a submitter: priority descending, then submission rank
   ascending.  [better a b] is true when [a] should run before [b]. *)
let better (a : entry) (b : entry) =
  a.job.Job.priority > b.job.Job.priority
  || (a.job.Job.priority = b.job.Job.priority && a.rank < b.rank)

let best_entry entries =
  List.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some cur -> if better e cur then Some e else acc)
    None entries

(* Submitter names sorted so the scan never depends on hash order. *)
let submitters t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.pending []
  |> List.sort compare

let take t =
  let pick =
    List.fold_left
      (fun acc name ->
        match best_entry !(bucket t name) with
        | None -> acc
        | Some e -> (
          let svc = service t name in
          match acc with
          | None -> Some (svc, name, e)
          | Some (cur_svc, cur_name, _) ->
            if svc < cur_svc || (svc = cur_svc && name < cur_name) then
              Some (svc, name, e)
            else acc))
      None (submitters t)
  in
  match pick with
  | None -> None
  | Some (_, name, e) ->
    let buf = bucket t name in
    buf := List.filter (fun e' -> e' != e) !buf;
    Some e.job

let pending t =
  Hashtbl.fold (fun _ r acc -> acc + List.length !r) t.pending 0

let is_empty t = pending t = 0

let jobs t =
  (* Drain a charge-free copy through [take] to expose the order. *)
  let snapshot =
    { next_rank = t.next_rank;
      ranks = Hashtbl.copy t.ranks;
      pending = Hashtbl.create 16;
      services = Hashtbl.copy t.services }
  in
  Hashtbl.iter
    (fun name r -> Hashtbl.add snapshot.pending name (ref !r))
    t.pending;
  let rec drain acc =
    match take snapshot with None -> List.rev acc | Some j -> drain (j :: acc)
  in
  drain []
