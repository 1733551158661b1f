type t = int array

let rank = Array.length

(* A top-level loop: a local closure over [a] and [b] would be
   allocated on every call, and the optimiser compares maps often. *)
let rec equal_from (a : t) (b : t) i = i = rank a || (a.(i) = b.(i) && equal_from a b (i + 1))

let equal a b = rank a = rank b && equal_from a b 0

let is_valid shp = Array.for_all (fun e -> e >= 0) shp

let num_elements shp = Array.fold_left (fun acc e -> acc * e) 1 shp

let strides shp =
  let n = rank shp in
  let st = Array.make n 1 in
  for i = n - 2 downto 0 do
    st.(i) <- st.(i + 1) * shp.(i + 1)
  done;
  st

let within ~shape iv =
  rank iv = rank shape
  &&
  let rec go i =
    i = rank iv || (iv.(i) >= 0 && iv.(i) < shape.(i) && go (i + 1))
  in
  go 0

let ravel ~shape iv =
  if not (within ~shape iv) then
    invalid_arg
      (Printf.sprintf "Shape.ravel: index out of bounds (rank %d shape, rank %d index)"
         (rank shape) (rank iv));
  let off = ref 0 in
  for i = 0 to rank shape - 1 do
    off := (!off * shape.(i)) + iv.(i)
  done;
  !off

let unsafe_ravel ~strides iv =
  let off = ref 0 in
  for i = 0 to Array.length iv - 1 do
    off := !off + (Array.unsafe_get strides i * Array.unsafe_get iv i)
  done;
  !off

let unravel ~shape off =
  let n = rank shape in
  let iv = Array.make n 0 in
  let rem = ref off in
  for i = n - 1 downto 0 do
    let e = shape.(i) in
    iv.(i) <- !rem mod e;
    rem := !rem / e
  done;
  iv

(* Row-major iteration with a single reused index buffer: odometer
   increment from the last axis. *)
let iter shp f =
  let n = rank shp in
  if num_elements shp > 0 then
    if n = 0 then f [||]
    else begin
      let iv = Array.make n 0 in
      let continue = ref true in
      while !continue do
        f iv;
        let rec bump i =
          if i < 0 then continue := false
          else begin
            iv.(i) <- iv.(i) + 1;
            if iv.(i) >= shp.(i) then begin
              iv.(i) <- 0;
              bump (i - 1)
            end
          end
        in
        bump (n - 1)
      done
    end

let fold shp ~init ~f =
  let acc = ref init in
  iter shp (fun iv -> acc := f !acc iv);
  !acc

let check_rank name a b =
  if rank a <> rank b then
    invalid_arg (Printf.sprintf "Shape.%s: rank mismatch (%d vs %d)" name (rank a) (rank b))

let map2 f a b =
  check_rank "map2" a b;
  Array.init (rank a) (fun i -> f a.(i) b.(i))

let add a b = check_rank "add" a b; Array.init (rank a) (fun i -> a.(i) + b.(i))
let sub a b = check_rank "sub" a b; Array.init (rank a) (fun i -> a.(i) - b.(i))
let mul a b = check_rank "mul" a b; Array.init (rank a) (fun i -> a.(i) * b.(i))
let div a b = check_rank "div" a b; Array.init (rank a) (fun i -> a.(i) / b.(i))
let min2 a b = map2 min a b
let max2 a b = map2 max a b
let scale k a = Array.map (fun e -> k * e) a
let add_scalar a k = Array.map (fun e -> e + k) a
let replicate n v = Array.make n v
let to_list = Array.to_list
let of_list = Array.of_list

let pp ppf shp =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') Format.pp_print_int)
    (to_list shp)

let to_string shp = Format.asprintf "%a" pp shp
