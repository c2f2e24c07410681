(* Output checks.  Each returns [Error msg] naming the first cell,
   variable or job that disagrees; none of them runs inside a timed
   window. *)

let fold_interior (st : Euler.State.t) f acc =
  let g = st.Euler.State.grid in
  let acc = ref acc in
  for iy = 0 to g.Euler.Grid.ny - 1 do
    for ix = 0 to g.Euler.Grid.nx - 1 do
      acc := f !acc ix iy (Euler.Grid.offset g ix iy)
    done
  done;
  !acc

let same_grid (a : Euler.State.t) (b : Euler.State.t) =
  let ga = a.Euler.State.grid and gb = b.Euler.State.grid in
  ga.Euler.Grid.nx = gb.Euler.Grid.nx && ga.Euler.Grid.ny = gb.Euler.Grid.ny

(* First interior (variable, cell) where [bad a b] holds. *)
let first_mismatch ~bad (a : Euler.State.t) (b : Euler.State.t) =
  if not (same_grid a b) then Error "grids differ"
  else
    let gb = b.Euler.State.grid in
    fold_interior a
      (fun acc ix iy oa ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          let ob = Euler.Grid.offset gb ix iy in
          let rec var k =
            if k = Euler.State.nvar then Ok ()
            else
              let x = a.Euler.State.q.(k).(oa) and y = b.Euler.State.q.(k).(ob) in
              if bad x y then
                Error
                  (Printf.sprintf "q%d at cell (%d, %d): %.17g vs %.17g" k ix iy
                     x y)
              else var (k + 1)
          in
          var 0)
      (Ok ())

let bitwise_equal a b =
  first_mismatch
    ~bad:(fun x y -> Int64.bits_of_float x <> Int64.bits_of_float y)
    a b

let within ~tol a b =
  first_mismatch ~bad:(fun x y -> not (Float.abs (x -. y) <= tol)) a b

(* Density and pressure finite and positive in every interior cell. *)
let physical (st : Euler.State.t) =
  fold_interior st
    (fun acc ix iy _ ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        let rho, _, _, p = Euler.State.primitive st ix iy in
        if not (Float.is_finite rho && rho > 0.) then
          Error (Printf.sprintf "density %g at cell (%d, %d)" rho ix iy)
        else if not (Float.is_finite p && p > 0.) then
          Error (Printf.sprintf "pressure %g at cell (%d, %d)" p ix iy)
        else Ok ())
    (Ok ())

(* Every expected job has exactly one result, status done, at its
   target step count.  [results] is the (id, key-value) list read back
   from the inbox's result store. *)
let fleet_results ~expected ~results =
  let rec check = function
    | [] -> Ok ()
    | (id, steps) :: rest -> (
      match List.filter (fun (rid, _) -> rid = id) results with
      | [] -> Error (Printf.sprintf "job %s: no result file" id)
      | _ :: _ :: _ -> Error (Printf.sprintf "job %s: several result files" id)
      | [ (_, kv) ] -> (
        match (List.assoc_opt "status" kv, List.assoc_opt "steps" kv) with
        | Some "done", Some s when int_of_string_opt s = Some steps -> check rest
        | Some "done", s ->
          Error
            (Printf.sprintf "job %s: %s steps, target %d" id
               (Option.value s ~default:"no") steps)
        | st, _ ->
          Error
            (Printf.sprintf "job %s: status %s (%s)" id
               (Option.value st ~default:"missing")
               (Option.value (List.assoc_opt "error" kv) ~default:""))))
  in
  check expected

(* An uninterrupted re-run's snapshot bytes against the job's final
   checkpoint file. *)
let same_bytes ~id ~expected ~actual =
  if String.equal expected actual then Ok ()
  else
    Error
      (Printf.sprintf "job %s: re-run snapshot (%d bytes) differs from final checkpoint (%d bytes)"
         id (String.length actual) (String.length expected))
