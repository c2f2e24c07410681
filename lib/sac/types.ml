open Ast

let sub_shape a b =
  match (a, b) with
  | _, Aud -> true
  | Aks s, Aks s' -> s = s'
  | Aks s, Akd n -> List.length s = n
  | Akd n, Akd n' -> n = n'
  | Akd _, Aks _ | Aud, (Aks _ | Akd _) -> false

let subtype a b = a.base = b.base && sub_shape a.shape b.shape

let join_shape a b =
  match (a, b) with
  | Aks s, Aks s' when s = s' -> Aks s
  | (Aks _ | Akd _), (Aks _ | Akd _) -> (
    let rank = function Aks s -> List.length s | Akd n -> n | Aud -> -1 in
    if rank a = rank b then Akd (rank a) else Aud)
  | _ -> Aud

let meet_shape a b =
  match (a, b) with
  | Aud, x | x, Aud -> Some x
  | Aks s, Aks s' -> if s = s' then Some (Aks s) else None
  | Aks s, Akd n | Akd n, Aks s ->
    if List.length s = n then Some (Aks s) else None
  | Akd n, Akd n' -> if n = n' then Some (Akd n) else None

let rank_of = function
  | Aks s -> Some (List.length s)
  | Akd n -> Some n
  | Aud -> None

let is_scalar t = match t.shape with Aks [] -> true | _ -> false
let is_array t = not (is_scalar t)

let some_int = Some (scalar Tint)
let some_double = Some (scalar Tdouble)

let promote a b =
  if not (is_scalar a && is_scalar b) then None
  else
    match (a.base, b.base) with
    | Tint, Tint -> some_int
    | (Tdouble | Tint), (Tdouble | Tint) -> some_double
    | _ -> None

let shape_to_string = function
  | Aks [] -> ""
  | Aks s -> "[" ^ String.concat "," (List.map string_of_int s) ^ "]"
  | Akd n -> "[" ^ String.concat "," (List.init n (fun _ -> ".")) ^ "]"
  | Aud -> "[+]"

let to_string t =
  let base =
    match t.base with
    | Tdouble -> "double"
    | Tint -> "int"
    | Tbool -> "bool"
  in
  base ^ shape_to_string t.shape
