(* Bench artefacts: a JSON value type, its printer and reader, and the
   one floor table every BENCH_*.json is checked against. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Fewest digits that read back bitwise, with a '.' or an exponent so
   the reader tells it from an [Int]. *)
let float_text x =
  let s =
    List.find (fun s -> float_of_string s = x)
      (List.map (fun p -> Printf.sprintf "%.*g" p x) [ 15; 16; 17 ])
  in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Containers at depth 0 and 1 take one item per line, deeper ones stay
   on their parent's line: one artefact row per line. *)
let render depth v =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  let rec go depth ind = function
    | Null -> add "null"
    | Bool x -> add (string_of_bool x)
    | Int i -> add (string_of_int i)
    | Float x -> add (if Float.is_finite x then float_text x else "null")
    | String s ->
      let esc = function
        | ('"' | '\\') as c -> add "\\"; Buffer.add_char b c
        | '\n' -> add "\\n"
        | c when c < ' ' -> add (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c
      in
      add "\"";
      String.iter esc s;
      add "\""
    | List l ->
      let item v () = go (depth + 1) (ind ^ "  ") v in
      items depth ind "[" "]" (List.map item l)
    | Obj l ->
      let member (k, v) () =
        go depth ind (String k);
        add ": ";
        go (depth + 1) (ind ^ "  ") v
      in
      items depth ind "{" "}" (List.map member l)
  and items depth ind o c = function
    | [] -> add (o ^ c)
    | l ->
      let sep = if depth < 2 then "\n" ^ ind ^ "  " else " " in
      add o;
      List.iteri (fun i f -> add ((if i > 0 then "," else "") ^ sep); f ()) l;
      add ((if depth < 2 then "\n" ^ ind else " ") ^ c)
  in
  go depth "" v;
  Buffer.contents b

let to_string v = render 0 v

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "byte %d: %s" !pos msg) in
  let at c = !pos < n && s.[!pos] = c in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let eat c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let skip chars =
    while !pos < n && String.contains chars s.[!pos] do incr pos done
  in
  let ws () = skip " \n" in
  let digits () =
    let p = !pos in
    skip "0123456789";
    if !pos = p then fail "expected a digit"
  in
  (* Only the printer's escapes: quote, backslash, newline, \u00XX. *)
  let escape () =
    let u = if !pos + 5 <= n then String.sub s !pos 5 else "" in
    let is_u c = Printf.sprintf "u%04x" c = u in
    match (peek (), List.find_opt is_u (List.init 32 Fun.id)) with
    | (('"' | '\\') as c), _ -> incr pos; c
    | 'n', _ -> incr pos; '\n'
    | _, Some c -> pos := !pos + 5; Char.chr c
    | _ -> fail "invalid escape"
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      let c = peek () in
      if c < ' ' then fail "control character in string";
      incr pos;
      Buffer.add_char b (if c = '\\' then escape () else c)
    done;
    incr pos;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    if at '0' then incr pos else digits ();
    let frac = at '.' || at 'e' in
    if at '.' then (incr pos; digits ());
    if at 'e' then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if frac then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> fail "integer out of range"
  in
  let items o c item =
    eat o;
    ws ();
    let rec more acc =
      let acc = item () :: acc in
      ws ();
      if at ',' then (incr pos; more acc) else (eat c; List.rev acc)
    in
    if at c then (incr pos; []) else more []
  in
  let rec value () =
    ws ();
    let literal w v = String.iter eat w; v in
    match peek () with
    | '{' ->
      let member () =
        ws ();
        let k = string () in
        ws ();
        eat ':';
        (k, value ())
      in
      Obj (items '{' '}' member)
    | '[' -> List (items '[' ']' value)
    | '"' -> String (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value () in
    ws ();
    if !pos < n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Failure msg -> Error msg

(* The floor table.  Each floor value is written here only. *)
let parity_target = 1.2

(* Minor words per sacprog-vm step: about 3,750 at the quick grid (40
   cells) and flat in nx; boxed batched int compares add 73 per cell,
   which took the quick grid to 7,577. *)
let vm_minor_words_ceiling = 5000.
let fold_scaling_floor = 1.2
let fleet_speedup_floor = 2.0
let max_fused_regions = 4

let get path v =
  let field v k = match v with Obj l -> List.assoc_opt k l | _ -> None in
  List.fold_left (fun v k -> Option.value (field v k) ~default:Null) v
    (String.split_on_char '.' path)

let num = function
  | Int i -> Some (float_of_int i)
  | Float x -> Some x
  | _ -> None

(* The rows of list [L] in a selection "L[F]" that pass filter [F]:
   conditions "k=v" or "k!=v" joined by "&", [v] in JSON or a bare
   string. *)
let select sel v =
  let key, conds =
    match String.index_opt sel '[' with
    | None -> (sel, [])
    | Some i ->
      let f = String.sub sel (i + 1) (String.length sel - i - 2) in
      (String.sub sel 0 i, String.split_on_char '&' f)
  in
  let pass r c =
    let i = String.index c '=' in
    let neg = c.[i - 1] = '!' in
    let text = String.sub c (i + 1) (String.length c - i - 1) in
    let x = Result.value (of_string text) ~default:(String text) in
    get (String.sub c 0 (if neg then i - 1 else i)) r = x <> neg
  in
  match get key v with
  | List l -> List.filter (fun r -> List.for_all (pass r) conds) l
  | _ -> []

(* A predicate's name is the query that measures it: a dotted path;
   "A - B"; "#L[F]", the number of selected rows; or "min L[F].Q",
   "max ..." or "set ...", the least, greatest or sorted distinct
   values of query Q over them.  Null when a value is missing or not a
   number. *)
let rec measure q v =
  let agg = String.sub q 0 (min 4 (String.length q)) in
  match (agg, String.split_on_char ' ' q) with
  | ("min " | "max " | "set "), _ ->
    let rest = String.sub q 4 (String.length q - 4) in
    let close = Option.value (String.rindex_opt rest ']') ~default:0 in
    let dot = String.index_from rest close '.' in
    let sub = String.sub rest (dot + 1) (String.length rest - dot - 1) in
    let xs = List.map (measure sub) (select (String.sub rest 0 dot) v) in
    (match (agg, List.map num xs) with
     | "set ", _ -> List (List.sort_uniq compare xs)
     | _, Some x :: r when List.for_all Option.is_some r ->
       let pick = if agg = "min " then Float.min else Float.max in
       Float (List.fold_left (fun a o -> pick a (Option.get o)) x r)
     | _ -> Null)
  | _, [ a; "-"; b ] ->
    (match (num (measure a v), num (measure b v)) with
     | Some x, Some y -> Float (x -. y)
     | _ -> Null)
  | _ when q.[0] = '#' ->
    Int (List.length (select (String.sub q 1 (String.length q - 1)) v))
  | _ -> get q v

(* Each predicate reads "QUERY OP BOUND", the bound in JSON or else a
   query of the same artefact; [full] marks one that binds on full-size
   artefacts only, quick (overhead-dominated) ones being exempt. *)
let p text = (false, text)
let full text = (true, text)
let execs = {|["fork-join","sequential","spmd"]|}

let table =
  [ ( "hotpath-v3",
      [ p ("parity_target == " ^ float_text parity_target);
        p "fold.bitwise_equal == true";
        p "fold.fold_kernel_execs > 0";
        p "fold.fold_execs - fold.fold_kernel_execs == 0";
        p "fold.par_fold_kernel_execs > 0";
        p "fold.seq_ms_per_call > 0";
        p "fold.kernel_speedup >= 1";
        p "fold.par_lanes >= 2";
        full ("fold.par_speedup >= " ^ float_text fold_scaling_floor);
        p "#backends > 0";
        p "#backends[name=sacprog-vm] == 1";
        p "#backends[name=sacprog-interp] == 1";
        p "#backends[name=reference-sod] == 1";
        p "min backends[name=sacprog-vm].speedup_vs_interp >= 1";
        p "min backends[name=sacprog-vm].slowdown_vs_reference_sod > 0";
        p
          ("max backends[name=sacprog-vm].minor_words_per_step <= "
          ^ float_text vm_minor_words_ceiling);
        full
          ("max backends[name=sacprog-vm].slowdown_vs_reference_sod <= "
          ^ float_text parity_target) ] );
    ( "scaling-v1",
      [ p ("set rows.exec == " ^ execs);
        p "min rows[exec!=sequential].lanes == 1";
        p "max rows[exec!=sequential].lanes == max_lanes";
        p "set rows.fused == [false,true]";
        p ("max rows[fused=true&exec!=fork-join].regions_per_step <= "
           ^ string_of_int max_fused_regions);
        p "min rows.ms_per_step > 0" ] );
    ( "checkpoint-v1",
      [ p "#rows > 0";
        p "min rows.ms_per_snapshot > 0";
        p "min rows.payload_fraction > 0.5" ] );
    ( "tiling-v1",
      [ p ("set rows.exec == " ^ execs);
        p "set rows.tiles == [[1,1],[2,2],[3,2]]";
        p ("max rows[exec!=fork-join].regions_per_step <= "
           ^ string_of_int max_fused_regions);
        p "min rows[tiles!=[1,1]].halo_share > 0";
        p "max rows[tiles=[1,1]].halo_share == 0";
        p "set rows.growths_stable == [true]";
        p "min rows.ms_per_step > 0" ] );
    ( "convergence-v1",
      [ p {|set rows.kind == ["exact","self"]|};
        p "set rows.pass == [true]";
        p "set rows.monotone == [true]";
        p "min rows.#samples >= 2";
        p "min rows[kind=self].observed_order - min_order >= 0" ] );
    ( "fleet-v2",
      [ p ("speedup_floor == " ^ float_text fleet_speedup_floor);
        p ("speedup >= " ^ float_text fleet_speedup_floor);
        p "failed == 0";
        p "jobs - completed == 0";
        p "preemptions > 0";
        p "resumes > 0";
        p "#rows >= 20";
        p "#rows - jobs == 0";
        p {|set rows.status == ["done"]|};
        p "min rows.steps_run > 0";
        p "fleet.agg_cells_per_s > 0";
        p "fleet.p99_ms_per_step - fleet.p50_ms_per_step >= 0" ] ) ]

type outcome = {
  name : string;
  rule : string;
  measured : t;
  ok : bool;
  exempt : bool;
}

let check v =
  match get "schema" v with
  | String schema when List.mem_assoc schema table ->
    let quick = get "quick" v = Bool true in
    let outcome (quick_exempt, text) =
      match List.rev (String.split_on_char ' ' text) with
      | bound :: op :: query ->
        let name = String.concat " " (List.rev query) in
        let m = measure name v and rule = op ^ " " ^ bound in
        let b, rule =
          match of_string bound with
          | Ok b -> (b, rule)
          | Error _ ->
            let b = measure bound v in
            (b, rule ^ " (" ^ render 2 b ^ ")")
        in
        let ok =
          match (num m, num b) with
          | Some x, Some y ->
            List.assoc op
              [ ("==", x = y); (">=", x >= y); (">", x > y); ("<=", x <= y) ]
          | _ -> op = "==" && m = b
        in
        { name; rule; measured = m; ok;
          exempt = quick && quick_exempt }
      | _ -> invalid_arg text
    in
    Ok (List.map outcome (List.assoc schema table))
  | schema -> Error ("unknown schema " ^ render 2 schema)

let validate path =
  let checked =
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Result.bind (of_string text) check
    | exception Sys_error e -> Error e
  in
  match checked with
  | Error e -> Printf.eprintf "%s: %s\n" path e; false
  | Ok outcomes ->
    let line o =
      Printf.sprintf "%s %s: %s" o.name o.rule (render 2 o.measured)
    in
    let status o =
      if o.ok then "ok" else if o.exempt then "quick" else "FAIL"
    in
    Printf.printf "%s:\n" path;
    List.iter (fun o -> Printf.printf "  %-5s %s\n" (status o) (line o))
      outcomes;
    let failed = List.filter (fun o -> status o = "FAIL") outcomes in
    List.iter (fun o -> Printf.eprintf "%s: failed %s\n" path (line o)) failed;
    failed = []

let write path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v ^ "\n"));
  Printf.printf "wrote %s\n" path;
  validate path
