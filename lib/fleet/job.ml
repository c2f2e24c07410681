exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

type target = Steps of int | Until of float

type t = {
  id : string;
  submitter : string;
  priority : int;
  backend : string;
  scenario : string;
  nx : int option;
  ms : float option;
  recon : Euler.Recon.kind option;
  riemann : Euler.Riemann.kind option;
  rk : Euler.Rk.kind option;
  cfl : float option;
  tiles : int * int;
  target : target;
}

let valid_id id =
  id <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       id

let check_id id =
  if not (valid_id id) then
    invalid "job id %S: need non-empty [A-Za-z0-9._-]+ (it names files)" id

let make ?(submitter = "anon") ?(priority = 0) ?(backend = "reference") ?nx ?ms
    ?recon ?riemann ?rk ?cfl ?(tiles = (1, 1)) ~id ~scenario target =
  check_id id;
  if submitter = "" then invalid "job %s: empty submitter" id;
  (match nx with
   | Some n when n < 1 -> invalid "job %s: nx must be >= 1" id
   | _ -> ());
  (match target with
   | Steps n when n < 0 -> invalid "job %s: steps must be >= 0" id
   | _ -> ());
  let tr, tc = tiles in
  if tr < 1 || tc < 1 then invalid "job %s: tiles must be >= 1x1" id;
  { id; submitter; priority; backend; scenario; nx; ms; recon; riemann; rk;
    cfl; tiles; target }

let scenario t = Engine.Scenario.find_exn t.scenario

let problem t =
  Engine.Scenario.problem ?nx:t.nx ?ms:t.ms (scenario t)

let config t =
  let s = scenario t in
  let c = Engine.Scenario.config s in
  { c with
    Euler.Solver.recon = Option.value t.recon ~default:c.Euler.Solver.recon;
    riemann = Option.value t.riemann ~default:c.Euler.Solver.riemann;
    rk = Option.value t.rk ~default:c.Euler.Solver.rk;
    cfl = Option.value t.cfl ~default:c.Euler.Solver.cfl;
    tiles = t.tiles }

let float_str v = Printf.sprintf "%.17g" v

let to_kv t =
  let opt k f v = match v with None -> [] | Some v -> [ (k, f v) ] in
  [ ("fleetjob", "1");
    ("submitter", t.submitter);
    ("priority", string_of_int t.priority);
    ("backend", t.backend);
    ("scenario", t.scenario) ]
  @ opt "nx" string_of_int t.nx
  @ opt "ms" float_str t.ms
  @ opt "recon" Euler.Recon.name t.recon
  @ opt "riemann" Euler.Riemann.name t.riemann
  @ opt "rk" Euler.Rk.name t.rk
  @ opt "cfl" float_str t.cfl
  @ (if t.tiles = (1, 1) then []
     else
       let r, c = t.tiles in
       [ ("tiles", Printf.sprintf "%dx%d" r c) ])
  @ [ (match t.target with
       | Steps n -> ("steps", string_of_int n)
       | Until tt -> ("t_end", float_str tt)) ]

let known_keys =
  [ "fleetjob"; "submitter"; "priority"; "backend"; "scenario"; "nx"; "ms";
    "recon"; "riemann"; "rk"; "cfl"; "tiles"; "steps"; "t_end" ]

let parse_int ~id k v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> invalid "job %s: key %s: %S is not an integer" id k v

let parse_float ~id k v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> invalid "job %s: key %s: %S is not a number" id k v

let parse_tiles ~id v =
  match String.split_on_char 'x' v with
  | [ r; c ] -> (
    match (int_of_string_opt r, int_of_string_opt c) with
    | Some r, Some c when r >= 1 && c >= 1 -> (r, c)
    | _ -> invalid "job %s: tiles %S: want RxC with R,C >= 1" id v)
  | _ -> invalid "job %s: tiles %S: want RxC" id v

let of_kv ~id kvs =
  check_id id;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (k, _) ->
      if not (List.mem k known_keys) then
        invalid "job %s: unknown key %S (known: %s)" id k
          (String.concat ", " known_keys);
      if Hashtbl.mem seen k then invalid "job %s: duplicate key %S" id k;
      Hashtbl.add seen k ())
    kvs;
  (match Kv.get kvs "fleetjob" with
   | Some "1" -> ()
   | Some v -> invalid "job %s: unsupported fleetjob version %S" id v
   | None -> invalid "job %s: missing 'fleetjob 1' header" id);
  let scenario =
    match Kv.get kvs "scenario" with
    | Some s -> s
    | None -> invalid "job %s: missing scenario" id
  in
  let target =
    match (Kv.get kvs "steps", Kv.get kvs "t_end") with
    | Some n, None -> Steps (parse_int ~id "steps" n)
    | None, Some t -> Until (parse_float ~id "t_end" t)
    | Some _, Some _ -> invalid "job %s: give steps or t_end, not both" id
    | None, None -> invalid "job %s: missing target (steps or t_end)" id
  in
  let enum k of_string v =
    match of_string v with
    | Some x -> x
    | None -> invalid "job %s: key %s: unknown value %S" id k v
  in
  make
    ~submitter:(Option.value (Kv.get kvs "submitter") ~default:"anon")
    ~priority:
      (Option.fold ~none:0 ~some:(parse_int ~id "priority")
         (Kv.get kvs "priority"))
    ~backend:(Option.value (Kv.get kvs "backend") ~default:"reference")
    ?nx:(Option.map (parse_int ~id "nx") (Kv.get kvs "nx"))
    ?ms:(Option.map (parse_float ~id "ms") (Kv.get kvs "ms"))
    ?recon:(Option.map (enum "recon" Euler.Recon.of_string) (Kv.get kvs "recon"))
    ?riemann:
      (Option.map (enum "riemann" Euler.Riemann.of_string)
         (Kv.get kvs "riemann"))
    ?rk:(Option.map (enum "rk" Euler.Rk.of_string) (Kv.get kvs "rk"))
    ?cfl:(Option.map (parse_float ~id "cfl") (Kv.get kvs "cfl"))
    ~tiles:
      (Option.fold ~none:(1, 1) ~some:(parse_tiles ~id) (Kv.get kvs "tiles"))
    ~id ~scenario target

let save ~path t = Kv.write ~path (to_kv t)

let load ~id ~path =
  match Kv.read ~path with
  | kvs -> of_kv ~id kvs
  | exception Kv.Malformed msg -> invalid "job %s: %s" id msg

let describe t =
  let targ =
    match t.target with
    | Steps n -> Printf.sprintf "%d steps" n
    | Until tt -> Printf.sprintf "t_end %.6g" tt
  in
  let nx =
    match t.nx with Some n -> string_of_int n | None -> "default"
  in
  Printf.sprintf "%s (%s, pri %d): %s/%s nx=%s tiles=%dx%d, %s" t.id
    t.submitter t.priority t.backend t.scenario nx (fst t.tiles) (snd t.tiles)
    targ
