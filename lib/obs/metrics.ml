type labels = (string * string) list

(* Canonical label order so [("a","1");("b","2")] and its permutation
   intern the same cell. *)
let canon (ls : labels) = List.sort (fun (a, _) (b, _) -> compare a b) ls

type counter = { cname : string; clabels : labels; cell : int Atomic.t }
type gauge = { gname : string; glabels : labels; bits : int64 Atomic.t }

(* 63 buckets: bucket i counts v with 2^i <= v < 2^(i+1) (bucket 0 also
   takes v <= 1), which covers every non-negative int. *)
let nbuckets = 63

type histogram = {
  hname : string;
  hlabels : labels;
  buckets : int Atomic.t array;
  sum : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram
type histogram_snapshot = { buckets : int array; count : int; sum : int }
type value = Counter of int | Gauge of float | Histogram of histogram_snapshot

(* A family is every cell of one name: the unlabelled cell, the live
   labelled cells, and the summed value of the labelled cells retired
   so far.  A write touches exactly one cell; the family total — what
   an unlabelled read returns — is derived from all of them under the
   registry mutex, so a retirement (cell value moved into [retired])
   is never seen half done.  One family has one kind: an OpenMetrics
   family has exactly one type. *)
type family = {
  kind : string;
  cells : (labels, instrument) Hashtbl.t;
  mutable retired : value;
}

let families : (string, family) Hashtbl.t = Hashtbl.create 32
let registry_m = Mutex.create ()

let locked f =
  Mutex.lock registry_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_m) f

let zero_of = function
  | "counter" -> Counter 0
  | "gauge" -> Gauge 0.0
  | _ -> Histogram { buckets = [||]; count = 0; sum = 0 }

let intern ~kind name labels make =
  locked (fun () ->
      let f =
        match Hashtbl.find_opt families name with
        | Some f when f.kind <> kind ->
            invalid_arg (Printf.sprintf "Metrics.%s: %S is not a %s" kind name kind)
        | Some f -> f
        | None ->
            let f = { kind; cells = Hashtbl.create 4; retired = zero_of kind } in
            Hashtbl.add families name f;
            f
      in
      match Hashtbl.find_opt f.cells labels with
      | Some i -> i
      | None ->
          let i = make () in
          Hashtbl.add f.cells labels i;
          i)

(* ------------------------------------------------------------------ *)
(* Cell reads and family totals                                        *)

let cell_snapshot (h : histogram) =
  let raw = Array.map Atomic.get h.buckets in
  let last = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then last := i) raw;
  let buckets = Array.sub raw 0 (!last + 1) in
  { buckets; count = Array.fold_left ( + ) 0 buckets; sum = Atomic.get h.sum }

let cell_value = function
  | C c -> Counter (Atomic.get c.cell)
  | G g -> Gauge (Int64.float_of_bits (Atomic.get g.bits))
  | H h -> Histogram (cell_snapshot h)

(* Summing two trimmed snapshots bucket-wise keeps the result trimmed:
   the longer one ends in a non-empty bucket. *)
let sum_values a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram x, Histogram y ->
      let get (s : histogram_snapshot) i = if i < Array.length s.buckets then s.buckets.(i) else 0 in
      let n = max (Array.length x.buckets) (Array.length y.buckets) in
      Histogram
        { buckets = Array.init n (fun i -> get x i + get y i);
          count = x.count + y.count;
          sum = x.sum + y.sum;
        }
  | _ -> invalid_arg "Metrics: mixed kinds in one family"

(* Called under the registry mutex. *)
let family_total f = Hashtbl.fold (fun _ i acc -> sum_values acc (cell_value i)) f.cells f.retired

let total name =
  locked (fun () -> Option.map family_total (Hashtbl.find_opt families name))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

let counter ?(labels = []) name =
  let labels = canon labels in
  match
    intern ~kind:"counter" name labels (fun () ->
        C { cname = name; clabels = labels; cell = Atomic.make 0 })
  with
  | C c -> c
  | _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)

let incr c = ignore (Atomic.fetch_and_add c.cell 1)
let add c d = ignore (Atomic.fetch_and_add c.cell d)

let value c =
  if c.clabels <> [] then Atomic.get c.cell
  else match total c.cname with Some (Counter n) -> n | _ -> 0

let counter_labels c = c.clabels

(* ------------------------------------------------------------------ *)
(* Gauges (float payload stored as bits; accumulate via CAS)           *)

let gauge ?(labels = []) name =
  let labels = canon labels in
  match
    intern ~kind:"gauge" name labels (fun () ->
        G { gname = name; glabels = labels; bits = Atomic.make 0L })
  with
  | G g -> g
  | _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)

let set_gauge g v = Atomic.set g.bits (Int64.bits_of_float v)

let add_gauge g d =
  let rec go () =
    let old = Atomic.get g.bits in
    let nv = Int64.bits_of_float (Int64.float_of_bits old +. d) in
    if not (Atomic.compare_and_set g.bits old nv) then go ()
  in
  go ()

let gauge_value g =
  if g.glabels <> [] then Int64.float_of_bits (Atomic.get g.bits)
  else match total g.gname with Some (Gauge v) -> v | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let histogram ?(labels = []) name =
  let labels = canon labels in
  match
    intern ~kind:"histogram" name labels (fun () ->
        H
          { hname = name;
            hlabels = labels;
            buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
            sum = Atomic.make 0;
          })
  with
  | H h -> h
  | _ -> invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)

let bucket_of v =
  if v <= 1 then 0
  else begin
    (* floor(log2 v): position of the highest set bit. *)
    let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
    min (nbuckets - 1) (go v 0)
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl i

let observe (h : histogram) v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.sum (max 0 v))

let empty_snapshot = { buckets = [||]; count = 0; sum = 0 }

let histogram_snapshot (h : histogram) =
  if h.hlabels <> [] then cell_snapshot h
  else match total h.hname with Some (Histogram s) -> s | _ -> empty_snapshot

(* Bucket edges as floats: exact for every bucket (2^i < 2^63 fits a
   float's exponent range) where [bucket_lo]'s [1 lsl i] would
   overflow at i = 62. *)
let edge_lo i = if i <= 0 then 0.0 else 2.0 ** float_of_int i
let edge_hi i = if i <= 0 then 1.0 else 2.0 ** float_of_int (i + 1)

(* Nearest-rank quantile with linear interpolation inside the landing
   bucket: the estimate lies in the same log2 bucket as the exact
   order statistic (or an adjacent one when interpolation touches an
   edge) — the resolution the buckets actually store. *)
let quantile (s : histogram_snapshot) q =
  if s.count = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = Float.max 1.0 (q *. float_of_int s.count) in
    let n = Array.length s.buckets in
    let rec go i cum =
      if i >= n then edge_hi (n - 1)
      else
        let c = float_of_int s.buckets.(i) in
        if c > 0.0 && cum +. c >= rank then
          edge_lo i +. ((rank -. cum) /. c *. (edge_hi i -. edge_lo i))
        else go (i + 1) (cum +. c)
    in
    go 0 0.0
  end

(* A read-only lookup: snapshot-and-quantile without interning an
   empty histogram when the family was never observed (interning would
   make "was anything recorded?" indistinguishable from "nothing
   registered"). *)
let quantile_of ?(labels = []) name q =
  let labels = canon labels in
  let v =
    locked (fun () ->
        match Hashtbl.find_opt families name with
        | None -> None
        | Some f when labels = [] -> Some (family_total f)
        | Some f -> Option.map cell_value (Hashtbl.find_opt f.cells labels))
  in
  match v with
  | Some (Histogram s) when s.count > 0 -> Some (quantile s q)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let dump () =
  locked (fun () -> Hashtbl.fold (fun name f acc -> (name, family_total f) :: acc) families [])
  |> List.sort compare

let dump_all () =
  locked (fun () ->
      Hashtbl.fold
        (fun name f acc ->
          Hashtbl.fold
            (fun labels i acc -> if labels = [] then acc else (name, labels, cell_value i) :: acc)
            f.cells
            ((name, [], family_total f) :: acc))
        families [])
  |> List.sort compare

let retire labels =
  if labels <> [] then
    locked (fun () ->
        Hashtbl.iter
          (fun _ f ->
            let carries ls = List.for_all (fun l -> List.mem l ls) labels in
            let gone =
              Hashtbl.fold (fun ls i acc -> if carries ls then (ls, i) :: acc else acc) f.cells []
            in
            List.iter
              (fun (ls, i) ->
                f.retired <- sum_values f.retired (cell_value i);
                Hashtbl.remove f.cells ls)
              gone)
          families)
