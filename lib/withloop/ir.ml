open Mg_ndarray

type expr =
  | Const of float
  | Read of source * Ixmap.t
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Divf of expr * expr
  | Sqrt of expr
  | Absf of expr
  | Opaque of (Shape.t -> float)

and source = Arr of Ndarray.t | Node of node

and node = {
  nid : int;
  nshape : Shape.t;
  spec : spec;
  barrier : bool;
  mutable refs : int;
  mutable escaped : bool;
  mutable released : bool;
  mutable pin : int;
  mutable cache : Ndarray.t option;
  mutable loan : loan option;
}

and loan = {
  lbase : node;
  lborrower : node;
  lbuf : Ndarray.t;
  lshell : Ndarray.t;
  lsum : int;
}

and spec =
  | Genarray of { default : float; parts : part list }
  | Modarray of { base : source; parts : part list }

and part = { gen : Generator.t; body : expr }

(* Atomic so graphs may be built from several domains at once
   (concurrent engines); ids are only required to be unique per graph,
   but strict global monotonicity is cheap and simpler to reason
   about. *)
let counter = Atomic.make 0
let next_id () = 1 + Atomic.fetch_and_add counter 1

let source_shape = function Arr a -> Ndarray.shape a | Node n -> n.nshape

let rec expr_reads = function
  | Const _ | Opaque _ -> []
  | Read (s, m) -> [ (s, m) ]
  | Neg e | Sqrt e | Absf e -> expr_reads e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Divf (a, b) -> expr_reads a @ expr_reads b

let rec expr_has_opaque = function
  | Const _ | Read _ -> false
  | Opaque _ -> true
  | Neg e | Sqrt e | Absf e -> expr_has_opaque e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Divf (a, b) ->
      expr_has_opaque a || expr_has_opaque b

let rec map_leaves f e =
  match e with
  | Const _ | Read _ | Opaque _ -> f e
  | Neg a ->
      let a' = map_leaves f a in
      if a' == a then e else Neg a'
  | Sqrt a ->
      let a' = map_leaves f a in
      if a' == a then e else Sqrt a'
  | Absf a ->
      let a' = map_leaves f a in
      if a' == a then e else Absf a'
  | Add (a, b) ->
      let a' = map_leaves f a and b' = map_leaves f b in
      if a' == a && b' == b then e else Add (a', b')
  | Sub (a, b) ->
      let a' = map_leaves f a and b' = map_leaves f b in
      if a' == a && b' == b then e else Sub (a', b')
  | Mul (a, b) ->
      let a' = map_leaves f a and b' = map_leaves f b in
      if a' == a && b' == b then e else Mul (a', b')
  | Divf (a, b) ->
      let a' = map_leaves f a and b' = map_leaves f b in
      if a' == a && b' == b then e else Divf (a', b')

(* The walks below visit the reads in [expr_reads] order without
   building its list: fusion runs them on every rewrite step. *)
let rec fold_reads f acc = function
  | Const _ | Opaque _ -> acc
  | Read (s, m) -> f acc s m
  | Neg e | Sqrt e | Absf e -> fold_reads f acc e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Divf (a, b) -> fold_reads f (fold_reads f acc a) b

let rec read_count = function
  | Const _ | Opaque _ -> 0
  | Read _ -> 1
  | Neg e | Sqrt e | Absf e -> read_count e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Divf (a, b) -> read_count a + read_count b

let rec first_node_read = function
  | Read (Node n, _) -> Some n
  | Const _ | Opaque _ | Read (Arr _, _) -> None
  | Neg e | Sqrt e | Absf e -> first_node_read e
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Divf (a, b) -> (
      match first_node_read a with None -> first_node_read b | found -> found)

let same_source s s' =
  match (s, s') with Node a, Node b -> a == b | Arr a, Arr b -> a == b | _ -> false

let rec mem_source s = function [] -> false | s' :: rest -> same_source s s' || mem_source s rest

let expr_sources e =
  List.rev (fold_reads (fun acc s _ -> if mem_source s acc then acc else s :: acc) [] e)

let incr_refs = function Arr _ -> () | Node n -> n.refs <- n.refs + 1
let decr_refs = function Arr _ -> () | Node n -> n.refs <- n.refs - 1

let set_cache n a = n.cache <- Some a
let clear_cache n = n.cache <- None
let mark_escaped n = n.escaped <- true
let mark_released n = n.released <- true
let set_pin n owner = n.pin <- owner
let set_loan n l = n.loan <- l

let validate_part shp { gen; body = _ } =
  if Generator.rank gen <> Shape.rank shp then
    invalid_arg "Ir: generator rank does not match result shape";
  for j = 0 to Shape.rank shp - 1 do
    if gen.Generator.lb.(j) < 0 || gen.Generator.ub.(j) > shp.(j) then
      invalid_arg
        (Printf.sprintf "Ir: generator %s escapes shape %s"
           (Format.asprintf "%a" Generator.pp gen)
           (Shape.to_string shp))
  done

let register_part_sources parts =
  List.iter (fun p -> List.iter incr_refs (expr_sources p.body)) parts

let genarray ?(barrier = false) ?(default = 0.0) shp parts =
  List.iter (validate_part shp) parts;
  register_part_sources parts;
  { nid = next_id ();
    nshape = Array.copy shp;
    spec = Genarray { default; parts };
    barrier;
    refs = 0;
    escaped = false;
    released = false;
    pin = 0;
    cache = None;
    loan = None;
  }

let modarray ?(barrier = false) base parts =
  let shp = source_shape base in
  List.iter (validate_part shp) parts;
  incr_refs base;
  register_part_sources parts;
  { nid = next_id ();
    nshape = shp;
    spec = Modarray { base; parts };
    barrier;
    refs = 0;
    escaped = false;
    released = false;
    pin = 0;
    cache = None;
    loan = None;
  }

let value shp a =
  let stale _ = invalid_arg "Ir.value: a staged result was forced again after its buffer was released" in
  let n = genarray shp [ { gen = Generator.full shp; body = Opaque stale } ] in
  n.cache <- Some a;
  n.released <- true;
  n

let rec pp_expr ppf = function
  | Const c -> Format.fprintf ppf "%g" c
  | Read (Arr a, m) -> Format.fprintf ppf "arr%a[%a]" Shape.pp (Ndarray.shape a) Ixmap.pp m
  | Read (Node n, m) -> Format.fprintf ppf "n%d[%a]" n.nid Ixmap.pp m
  | Neg e -> Format.fprintf ppf "(- %a)" pp_expr e
  | Sqrt e -> Format.fprintf ppf "sqrt(%a)" pp_expr e
  | Absf e -> Format.fprintf ppf "abs(%a)" pp_expr e
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp_expr a pp_expr b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_expr a pp_expr b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_expr a pp_expr b
  | Divf (a, b) -> Format.fprintf ppf "(%a / %a)" pp_expr a pp_expr b
  | Opaque _ -> Format.fprintf ppf "<opaque>"
