(* Property tests pitting the compiled executor (kernel recognition,
   clusters, incremental bases) against a direct per-element oracle on
   randomly generated linear with-loops — the strongest guard on the
   code-generation layer. *)

open Mg_ndarray
open Mg_withloop
module E = Wl.Expr

let src_of_seed shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (10000 + seed)) () in
  Ndarray.init shp (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

(* A random linear stencil body over one source: coefficients and
   offsets within radius k. *)
type spec = {
  rank : int;
  extent : int;
  radius : int;
  terms : (int list * float) list;  (* offset, coefficient *)
  const : float;
  strided : bool;
}

let gen_spec =
  QCheck.Gen.(
    let* rank = 1 -- 3 in
    let* extent = 4 -- 7 in
    let* radius = 0 -- 1 in
    let* nterms = 1 -- 6 in
    let* terms =
      list_size (return nterms)
        (pair (list_size (return rank) (-radius -- radius)) (float_range (-2.0) 2.0))
    in
    let* const = float_range (-1.0) 1.0 in
    let* strided = bool in
    return { rank; extent; radius; terms; const; strided })

let print_spec s =
  Printf.sprintf "rank=%d extent=%d radius=%d strided=%b terms=[%s] const=%.3f" s.rank s.extent
    s.radius s.strided
    (String.concat ";"
       (List.map
          (fun (d, c) ->
            Printf.sprintf "(%s)*%.3f" (String.concat "," (List.map string_of_int d)) c)
          s.terms))
    s.const

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* A fresh graph for the spec each call: forcing the result of a second
   call exercises the plan cache (same structural key, new IR nodes). *)
let graph_of_spec s =
  let shp = Array.make s.rank s.extent in
  let src = src_of_seed shp (s.extent + List.length s.terms) in
  let w = Wl.of_ndarray src in
  let gen =
    if s.strided && s.extent > (2 * s.radius) + 2 then
      Generator.make
        ~step:(Array.make s.rank 2)
        ~lb:(Array.make s.rank s.radius)
        ~ub:(Array.map (fun e -> e - s.radius) shp)
        ()
    else Generator.interior shp s.radius
  in
  let body =
    List.fold_left
      (fun acc (d, c) -> E.(acc + (const c * read_offset w (Array.of_list d))))
      (E.const s.const) s.terms
  in
  (src, gen, Wl.genarray ~default:0.0 shp [ (gen, body) ])

let force_spec s =
  let _, gen, g = graph_of_spec s in
  QCheck.assume (not (Generator.is_empty gen));
  Wl.force g

let run_spec s =
  let src, gen, g = graph_of_spec s in
  QCheck.assume (not (Generator.is_empty gen));
  let got = Wl.force g in
  (* Oracle: straightforward per-element evaluation. *)
  let shp = Ndarray.shape src in
  let want =
    Ndarray.init shp (fun iv ->
        if Generator.mem gen iv then
          List.fold_left
            (fun acc (d, c) -> acc +. (c *. Ndarray.get src (Shape.add iv (Array.of_list d))))
            s.const s.terms
        else 0.0)
  in
  Ndarray.max_abs_diff got want < 1e-11

let qcheck_linear_bodies =
  QCheck.Test.make ~name:"compiled linear with-loops match per-element oracle" ~count:300
    arb_spec run_spec

(* The same property on the warm path: the first run seeds the plan
   cache, the second replays against the same oracle. *)
let qcheck_replay_matches_oracle =
  QCheck.Test.make ~name:"cached replays match per-element oracle" ~count:150 arb_spec
    (fun s -> run_spec s && run_spec s)

let qcheck_all_opt_levels =
  QCheck.Test.make ~name:"random bodies identical across opt levels" ~count:100 arb_spec
    (fun s ->
      let results =
        List.map
          (fun l -> Wl.with_config (fun c -> { c with Engine.opt_level = l }) (fun () -> run_spec s))
          [ Engine.O0; Engine.O1; Engine.O2; Engine.O3 ]
      in
      List.for_all (fun ok -> ok) results)

(* Scale-2 reads: the condense-fused shape (consumer half the size of
   the source, base pointer advancing two source cells per element). *)
let qcheck_scaled_reads =
  QCheck.Test.make ~name:"scale-2 reads match oracle" ~count:100
    QCheck.(pair (2 -- 4) (int_bound 1000))
    (fun (half, seed) ->
      let n = 2 * half in
      let src = src_of_seed [| n; n; n |] seed in
      let shp = [| half; half; half |] in
      let got =
        Wl.force
          (Wl.genarray shp
             [ (Generator.full shp, E.read_at (Wl.of_ndarray src) (Ixmap.scale 3 2)) ])
      in
      let want = Ndarray.init shp (fun iv -> Ndarray.get src (Shape.scale 2 iv)) in
      Ndarray.equal got want)

(* ------------------------------------------------------------------ *)
(* Staged kernel compilation (Cfun): the compiled closures must be
   bitwise identical to the interpreted generic cluster nest — same
   accumulation order, same leading [0.0 +.] in every group sum — on
   random rank-3 clustered bodies.  Coefficients are drawn from a small
   set so factoring produces groups of many deltas, covering every
   unrolled arity arm and the >12-delta loop fallback. *)

let gen_cfun_spec =
  QCheck.Gen.(
    let* extent = 5 -- 8 in
    let* radius = 0 -- 1 in
    let* nterms = 1 -- 27 in
    let* coeffs = list_size (return nterms) (oneofl [ 0.5; -1.0; 2.0; 0.125 ]) in
    let* offs = list_size (return nterms) (list_size (return 3) (-radius -- radius)) in
    let* const = float_range (-1.0) 1.0 in
    let* strided = bool in
    return { rank = 3; extent; radius; terms = List.combine offs coeffs; const; strided })

let arb_cfun_spec = QCheck.make ~print:print_spec gen_cfun_spec

(* How many samples actually dispatched a compiled closure (bodies the
   fixed kernels recognise bypass Cfun); checked after the qcheck run. *)
let cfun_dispatches = ref 0

let qcheck_cfun_bitwise_generic =
  QCheck.Test.make ~name:"compiled cfun closures bitwise match the generic nest" ~count:200
    arb_cfun_spec
    (fun s ->
      let c_cfun = Mg_obs.Metrics.counter "kernel.cfun" in
      (* Native off: this test pins the cfun tier specifically, and an
         MG_NATIVE=1 environment would otherwise take over the rung. *)
      let force cfun =
        Wl.with_config
          (fun c -> { c with Engine.native = false; cfun; opt_level = Engine.O3 })
          (fun () -> force_spec s)
      in
      let before = Mg_obs.Metrics.value c_cfun in
      let compiled = force true in
      if Mg_obs.Metrics.value c_cfun > before then incr cfun_dispatches;
      Ndarray.equal compiled (force false))

let test_cfun_path_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples dispatched compiled closures (%d did)" !cfun_dispatches)
    true (!cfun_dispatches > 0)

(* ------------------------------------------------------------------ *)
(* Two-stencil bodies (the fused restriction + residual): a stencil
   read at step 2 from a twice-finer source, one read at step 1, and
   single-read extras, every term in a random order — so the delta
   order inside each group, the group order and the cluster order all
   vary — with classes missing at random and distinct coefficients
   within each stencil, so each passes the class test.  A body in box
   order without extras runs on the fused fixed kernel under every
   tier, the others on the tier ladder; both must match the generic
   nest, which is evaluated here: the clusters the compiler builds
   (Cluster.clusterize of the factored linear form), walked as
   [Kernel.run_lin_generic] walks them — const, then each cluster, each
   group as [acc +. c *. (0.0 +. d0 +. d1 ...)]. *)

type st2_spec = {
  half : int;  (* output extent; the step-2 source is twice it *)
  cls_a : bool list;  (* distance classes 0-3 of the step-2 stencil *)
  cls_b : bool list;  (* and of the unit-step one *)
  coeffs : float list;  (* per class: a's four, then b's four *)
  extras : float list;  (* coefficients of the single reads *)
  perm : int;  (* shuffles the term order *)
  st2_const : float;
}

let print_st2 s =
  let bl l = String.concat "" (List.map (fun b -> if b then "1" else "0") l) in
  Printf.sprintf "half=%d a=%s b=%s coeffs=[%s] extras=[%s] perm=%d const=%h" s.half (bl s.cls_a)
    (bl s.cls_b)
    (String.concat ";" (List.map (Printf.sprintf "%h") s.coeffs))
    (String.concat ";" (List.map (Printf.sprintf "%h") s.extras))
    s.perm s.st2_const

let gen_st2 =
  QCheck.Gen.(
    let* half = 3 -- 6 in
    let* cls_a = list_repeat 4 bool and* cls_b = list_repeat 4 bool in
    let distinct4 = map (List.filteri (fun i _ -> i < 4)) (shuffle_l [ 0.3; -0.7; 1.1; 2.9; -1.3; 0.45 ]) in
    let* ca = distinct4 and* cb = distinct4 in
    let coeffs = ca @ cb in
    let* ne = 0 -- 2 in
    let* extras = list_repeat ne (oneofl [ 1.0; -0.6; 0.3 ]) in
    let* perm = 0 -- 100000 in
    let* st2_const = oneofl [ 0.0; 0.25; -1.0 ] in
    return { half; cls_a; cls_b; coeffs; extras; perm; st2_const })

let st2_class d = List.fold_left (fun n x -> if x <> 0 then n + 1 else n) 0 d

let st2_offsets =
  List.concat_map
    (fun a -> List.concat_map (fun b -> List.map (fun c -> [ a; b; c ]) [ -1; 0; 1 ]) [ -1; 0; 1 ])
    [ -1; 0; 1 ]

(* Sources with full 53-bit significands: the NAS generator's values
   are multiples of 2^-46, whose short sums are exact in any order, so
   they could not tell one read order from another. *)
let st2_src shp seed = Wl.of_ndarray (Ndarray.map (fun x -> x /. 3.0) (src_of_seed shp seed))

(* The body and its generator, terms in a seeded random order. *)
let st2_body s =
  let shp = [| s.half; s.half; s.half |] in
  let fine = st2_src (Array.map (fun d -> 2 * d) shp) (s.perm + 1) in
  let coarse = st2_src shp (s.perm + 2) in
  let stencil src map classes coeffs =
    List.filter_map
      (fun d ->
        let c = st2_class d in
        if List.nth classes c then Some (List.nth coeffs c, E.read_at src (map d)) else None)
      st2_offsets
  in
  let terms =
    stencil fine
      (fun d -> Ixmap.make ~scale:[| 2; 2; 2 |] ~offset:(Array.of_list d) 3)
      s.cls_a (List.filteri (fun i _ -> i < 4) s.coeffs)
    @ stencil coarse
        (fun d -> Ixmap.offset (Array.of_list d))
        s.cls_b (List.filteri (fun i _ -> i >= 4) s.coeffs)
    @ List.mapi (fun i c -> (c, E.read (st2_src shp (s.perm + 3 + i)))) s.extras
  in
  (* One sample in four keeps the box order, [Stencil.body]'s. *)
  let terms =
    if s.perm mod 4 = 0 then terms
    else
      let rng = Random.State.make [| s.perm |] in
      let keyed = List.map (fun t -> (Random.State.bits rng, t)) terms in
      List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) keyed)
  in
  let body = List.fold_left (fun acc (c, r) -> E.(acc + (const c * r))) (E.const s.st2_const) terms in
  (shp, Generator.interior shp 1, body)

(* The generic nest's order over the compiler's own clusters. *)
let st2_generic shp gen body =
  let lf = Option.get (Linform.of_expr body) in
  let ax = Option.get (Cluster.axes_of_gen gen) in
  let clusters = Option.get (Cluster.clusterize ax ~factor:true lf) in
  let obase, osteps = Cluster.out_layout_of ~ostrides:(Shape.strides shp) ax in
  let out = Ndarray.create shp in
  let c = ax.Cluster.counts in
  for k0 = 0 to c.(0) - 1 do
    for k1 = 0 to c.(1) - 1 do
      for k2 = 0 to c.(2) - 1 do
        let acc = ref lf.Linform.const in
        Array.iter
          (fun (cl : Cluster.ccluster) ->
            let b =
              cl.Cluster.xbase + (k0 * cl.Cluster.xsteps.(0)) + (k1 * cl.Cluster.xsteps.(1))
              + (k2 * cl.Cluster.xsteps.(2))
            in
            Array.iteri
              (fun g ds ->
                let sum = ref 0.0 in
                Array.iter (fun d -> sum := !sum +. Bigarray.Array1.get cl.Cluster.xbuf (b + d)) ds;
                acc := !acc +. (cl.Cluster.xcoeffs.(g) *. !sum))
              cl.Cluster.xdeltas)
          clusters;
        Ndarray.set_flat out (obase + (k0 * osteps.(0)) + (k1 * osteps.(1)) + (k2 * osteps.(2))) !acc
      done
    done
  done;
  out

(* Samples the fused kernel took, checked after the run. *)
let st2_lex_dispatches = ref 0
let c_stencil2_lex = Mg_obs.Metrics.counter "kernel.branch.stencil2.lex"

let qcheck_stencil2_bitwise_generic =
  QCheck.Test.make ~name:"two-stencil bodies bitwise match the generic nest" ~count:200
    (QCheck.make ~print:print_st2 gen_st2)
    (fun s ->
      (* Both stencils present: a body with one takes the single-stencil
         kernels, whose class order is their own. *)
      QCheck.assume (List.exists Fun.id (List.tl s.cls_a) && List.exists Fun.id (List.tl s.cls_b));
      let shp, gen, body = st2_body s in
      let want = st2_generic shp gen body in
      let before_lex = Mg_obs.Metrics.value c_stencil2_lex in
      let got =
        List.map
          (fun cfun ->
            Wl.with_config
              (fun c -> { c with Engine.native = false; cfun; opt_level = Engine.O3 })
              (fun () -> Wl.force (Wl.genarray ~default:0.0 shp [ (gen, body) ])))
          [ true; false ]
      in
      if Mg_obs.Metrics.value c_stencil2_lex > before_lex then incr st2_lex_dispatches;
      let bits a = Array.map Int64.bits_of_float (Ndarray.to_flat_array a) in
      List.for_all (fun g -> bits g = bits want) got)

let test_stencil2_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples dispatched the two-stencil kernel (%d did)" !st2_lex_dispatches)
    true (!st2_lex_dispatches > 0)

(* ------------------------------------------------------------------ *)
(* Paired parity rows (Plan.pair_rows, Kernel.pair): two parts whose
   boxes interleave along the row, a wider one reading 2m coarse values
   (each offset's element and the next one along the row) and a
   narrower one reading the m next ones — the prolongation's parity
   classes.  A paired body runs as one pair part; it must equal, bit
   for bit, what each member computes run on its own (a flat or zip
   part), with any const and weights (repeated weights group reads,
   which reorders a member's terms and leaves it unpaired), 1, 2 or 4
   offsets, the wider member first or second along the row, and
   sources with full significands, signed zeros and an infinity.  The
   near misses — the wider member's reads permuted, a box or a step
   that does not match, members reading the output — must stay on the
   members' own kernels. *)

type pair_miss = Exact | Permuted | Box | Step | Reads_output

type pair_spec = {
  m : int;  (* the narrower member's reads *)
  wide_first : bool;
  pbox : int array;  (* each member's counts *)
  cw : float;
  cn : float;
  weights : float list;  (* the wider member's 2m, then the narrower's m *)
  miss : pair_miss;
  pseed : int;
}

let miss_name = function
  | Exact -> "exact"
  | Permuted -> "permuted"
  | Box -> "box"
  | Step -> "step"
  | Reads_output -> "reads-output"

let print_pair s =
  Printf.sprintf "m=%d wide_first=%b box=%s cw=%h cn=%h weights=[%s] miss=%s seed=%d" s.m
    s.wide_first (Shape.to_string s.pbox) s.cw s.cn
    (String.concat ";" (List.map (Printf.sprintf "%h") s.weights))
    (miss_name s.miss) s.pseed

let gen_pair =
  QCheck.Gen.(
    let* m = oneofl [ 1; 2; 4 ] and* wide_first = bool in
    let* c0 = 1 -- 4 and* c1 = 1 -- 4 and* n = 1 -- 6 in
    let weight = oneofl [ 0.125; 0.25; 0.5; 1.0; 0.3; -0.7; 1.1; 2.9; -1.3; 0x1.5555555555555p-2 ] in
    let* cw = oneofl [ 0.0; -0.0; 0.375; -1.1 ] and* cn = oneofl [ 0.0; 0.25; -0.9 ] in
    let* weights = list_repeat (3 * m) weight in
    let* miss = frequency [ (6, return Exact); (1, return Permuted); (1, return Box); (1, return Step); (1, return Reads_output) ] in
    let* pseed = 0 -- 100000 in
    return { m; wide_first; pbox = [| c0; c1; n |]; cw; cn; weights; miss; pseed })

(* The members' row origin along axis 2: past the coarse rows they read
   when they read the output, so that no member reads an element a
   member writes. *)
let pair_x0 s = if s.miss = Reads_output then (2 * s.pbox.(2)) + 4 else 2

let pair_shape s =
  let x0 = pair_x0 s in
  [| (2 * s.pbox.(0)) + 4; (2 * s.pbox.(1)) + 4; x0 + (2 * s.pbox.(2)) + 2 |]

(* A source with full 53-bit significands, two signed zeros and an
   infinity at seeded places. *)
let pair_src s =
  let a = Ndarray.map (fun x -> x /. 3.0) (src_of_seed (pair_shape s) s.pseed) in
  let size = Ndarray.size a in
  List.iteri
    (fun i v -> Ndarray.set_flat a ((s.pseed + (i * 7919)) mod size) v)
    [ -0.0; 0.0; Float.infinity ];
  a

(* The two members as (generator, body), first along the row first;
   each reads the source through [at]. *)
let pair_members s (at : Ixmap.t -> E.e) =
  let x0 = pair_x0 s and c = s.pbox in
  let gen lb2 c1 =
    Generator.make ~step:[| 2; 2; 2 |] ~lb:[| 2; 2; lb2 |]
      ~ub:[| 2 + (2 * c.(0)); 2 + (2 * c1); lb2 + (2 * c.(2)) |]
      ()
  in
  (* Offsets (d0, d1) on the outer axes; along the row the left and
     right coarse elements of output pair k are x0/2 + k and x0/2 + k + 1. *)
  let outer = List.filteri (fun j _ -> j < s.m) [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
  let map ?(scale = [| 1; 1; 1 |]) (d0, d1) dx =
    Ixmap.make ~scale ~offset:[| 2 * d0; 2 * d1; dx |] ~div:[| 2; 2; 2 |] 3
  in
  (* The member at the first position reads at offset 0 (left) or 2
     (right), the second at -1 (left) or +1 (right). *)
  let left first = if first then 0 else -1 and right first = if first then 2 else 1 in
  let ww = List.filteri (fun i _ -> i < 2 * s.m) s.weights
  and wn = List.filteri (fun i _ -> i >= 2 * s.m) s.weights in
  let wide_at_first = s.wide_first in
  let wide_reads =
    List.concat_map
      (fun d -> [ map d (left wide_at_first); map d (right wide_at_first) ])
      outer
  in
  let wide_reads =
    match (s.miss, wide_reads) with
    | Permuted, l :: r :: rest -> r :: l :: rest
    | _ -> wide_reads
  in
  (* [Step]: the narrower member walks axis 0 twice as fast. *)
  let scale = if s.miss = Step then [| 2; 1; 1 |] else [| 1; 1; 1 |] in
  let narrow_reads = List.map (fun d -> map ~scale d (right (not wide_at_first))) outer in
  let body const ws maps =
    List.fold_left2 (fun acc w m -> E.(acc + (const w * at m))) (E.const const) ws maps
  in
  let wide = body s.cw ww wide_reads and narrow = body s.cn wn narrow_reads in
  let c1_narrow = if s.miss = Box then max 0 (c.(1) - 1) else c.(1) in
  let first_gen = gen x0 c.(1) and second_gen lb2 = gen lb2 c1_narrow in
  if s.wide_first then [ (first_gen, wide); (second_gen (x0 + 1), narrow) ]
  else [ (gen x0 c1_narrow, narrow); (gen (x0 + 1) c.(1), wide) ]

(* The graph of [members] (all of them, or one), over a leaf source or,
   for [Reads_output], as a barrier modarray reading its own base. *)
let pair_graph s src pick =
  let shp = pair_shape s in
  if s.miss = Reads_output then
    let base = Wl.genarray shp [ (Generator.full shp, E.read (Wl.of_ndarray src)) ] in
    Wl.modarray ~barrier:true base (pick (pair_members s (E.read_at base)))
  else
    let w = Wl.of_ndarray src in
    Wl.genarray ~default:0.0 shp (pick (pair_members s (E.read_at w)))

let pair_branch m = Mg_obs.Metrics.counter (Printf.sprintf "kernel.branch.pair.%d" (2 * m))
let pair_dispatches = ref 0
let pair_refusals = ref 0

let qcheck_pair_bitwise_members =
  QCheck.Test.make ~name:"paired parity rows bitwise match their members run alone" ~count:300
    (QCheck.make ~print:print_pair gen_pair)
    (fun s ->
      let src = pair_src s in
      let members = pair_members s (fun _ -> E.const 0.0) in
      QCheck.assume (List.for_all (fun (g, _) -> not (Generator.is_empty g)) members);
      let force pick = Ndarray.copy (Wl.force (pair_graph s src pick)) in
      let paired = Mg_obs.Metrics.value (pair_branch s.m) in
      let got = force Fun.id in
      let moved = Mg_obs.Metrics.value (pair_branch s.m) > paired in
      (* Each member alone, then its elements laid over the other's. *)
      let want = force (fun l -> [ List.hd l ]) in
      let second = force (fun l -> List.tl l) in
      Generator.iter (fst (List.nth members 1)) (fun iv -> Ndarray.set want iv (Ndarray.get second iv));
      let bits a = Array.map Int64.bits_of_float (Ndarray.to_flat_array a) in
      (* With distinct weights the exact shape must pair; a near miss
         never may. *)
      let distinct =
        let ws = List.map Int64.bits_of_float s.weights in
        List.length (List.sort_uniq compare ws) = List.length ws
      in
      if moved then incr pair_dispatches;
      if s.miss <> Exact then begin
        if moved then QCheck.Test.fail_reportf "a near miss (%s) ran the pair kernel" (miss_name s.miss);
        incr pair_refusals
      end
      else if distinct && not moved then QCheck.Test.fail_report "an exact pair stayed unpaired";
      bits got = bits want)

let test_pair_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples paired (%d) and refused near misses (%d)" !pair_dispatches
       !pair_refusals)
    true
    (!pair_dispatches > 0 && !pair_refusals > 0)

(* Buffer recycling: a node whose cache was recycled after its last
   consumer ran must transparently recompute when forced again, and
   results obtained before recycling must never change. *)
let test_recompute_after_recycle () =
  let shp = [| 12; 12 |] in
  let src = src_of_seed shp 5 in
  let producer = Mg_arraylib.Ops.mul_scalar (Wl.of_ndarray src) 3.0 in
  (* One consumer; after forcing it, the producer's refcount is 0 and
     its buffer may have been recycled. *)
  let consumer = Mg_arraylib.Ops.add_scalar producer 1.0 in
  let c1 = Ndarray.copy (Wl.force consumer) in
  (* Unrelated work that would reuse a recycled buffer of this size. *)
  for _ = 1 to 5 do
    ignore (Wl.force (Mg_arraylib.Ops.genarray_const shp 9.0))
  done;
  (* Forcing the producer directly must recompute correct values. *)
  let p = Wl.force producer in
  let expected = Ndarray.map (fun x -> x *. 3.0) src in
  Alcotest.(check bool) "producer recomputed" true (Ndarray.max_abs_diff p expected < 1e-12);
  Alcotest.(check bool) "consumer unchanged" true
    (Ndarray.max_abs_diff c1 (Ndarray.map (fun x -> (x *. 3.0) +. 1.0) src) < 1e-12)

let test_escaped_values_stable () =
  (* Values returned by Wl.force must survive arbitrary later engine
     activity (they are never recycled). *)
  let shp = [| 16; 16 |] in
  let src = src_of_seed shp 9 in
  let a = Wl.force (Mg_arraylib.Ops.mul_scalar (Wl.of_ndarray src) 2.0) in
  let snapshot = Ndarray.copy a in
  for i = 1 to 20 do
    ignore (Wl.force (Mg_arraylib.Ops.genarray_const shp (float_of_int i)))
  done;
  Alcotest.(check bool) "escaped array untouched" true (Ndarray.equal a snapshot)

(* ------------------------------------------------------------------ *)
(* Domain-count bitwise identity.  Parallel execution splits a
   compiled part along axis 0 into one slab per domain; each element's
   arithmetic is unchanged by the split, so the output must be
   bit-for-bit identical for every slab count, even and uneven. *)

(* A 27-point box stencil body (the NAS-MG operator shape), which the
   executor recognises and runs through the specialised kernels. *)
let stencil27 w =
  let coeff = [| -8.0 /. 3.0; 1.0 /. 8.0; 1.0 /. 6.0; 1.0 /. 12.0 |] in
  let body = ref (E.const 0.0) in
  for dz = -1 to 1 do
    for dy = -1 to 1 do
      for dx = -1 to 1 do
        let c = coeff.(abs dz + abs dy + abs dx) in
        body := E.(!body + (const c * read_offset w [| dz; dy; dx |]))
      done
    done
  done;
  !body

(* A body the fixed kernels do not recognise (9 scattered offsets, not
   a box): at O3 with cfun on it runs through the compiled closures, so
   the identity matrix also pits cfun against generic at every domain
   count. *)
let scattered9 w =
  List.fold_left
    (fun acc (d, c) -> E.(acc + (const c * read_offset w d)))
    (E.const 0.0)
    [ ([| 0; 0; 0 |], -1.25); ([| 1; 0; -1 |], 0.5); ([| -1; 1; 0 |], 0.5);
      ([| 0; -1; 1 |], 2.0); ([| 1; 1; 1 |], 0.5); ([| -1; -1; -1 |], 2.0);
      ([| 1; -1; 0 |], -1.25); ([| 0; 1; -1 |], 0.5); ([| -1; 0; 1 |], 2.0);
    ]

let test_domain_counts_bitwise_identical () =
  let n = 24 in
  let shp = [| n; n; n |] in
  let src = src_of_seed shp 42 in
  let gen = Generator.interior shp 1 in
  let force_with ~threads ~cfun body =
    (* Fresh plans per configuration; par_threshold 1 forces the
       parallel split even on this small grid. *)
    Wl.cache_clear ();
    Wl.with_config
      (fun c -> { c with Engine.threads; par_threshold = 1; cfun })
      (fun () ->
        let w = Wl.of_ndarray src in
        Ndarray.copy (Wl.force (Wl.genarray ~default:0.0 shp [ (gen, body w) ])))
  in
  List.iter
    (fun (body_name, body, cfuns) ->
      (* The reference runs sequentially through the interpreted
         generic nest (cfun off), so cfun-on configurations check
         compiled-vs-interpreted identity too. *)
      let reference = force_with ~threads:1 ~cfun:false body in
      List.iter
        (fun cfun ->
          List.iter
            (fun threads ->
              let got = force_with ~threads ~cfun body in
              Alcotest.(check bool)
                (Printf.sprintf "bitwise identical: %s, cfun=%b, %d domains" body_name cfun
                   threads)
                true (Ndarray.equal got reference))
            [ 1; 2; 3; 4 ])
        cfuns)
    [ ("stencil27", stencil27, [ true ]); ("scattered9", scattered9, [ false; true ]) ]

(* The executor buffer pool is shared state hammered from worker
   domains (replays recycle buffers inside parallel regions); this
   drives it from several domains at once and checks it still hands
   out usable arrays. *)
let test_mempool_concurrent () =
  Mempool.clear ();
  let pool = Mg_smp.Domain_pool.create 4 in
  let shp = [| 17; 13 |] in
  (* Workers only record pass/fail; Alcotest.check formats through
     shared Format state and must not be called from other domains. *)
  let intact = Array.make 400 false in
  Mg_smp.Domain_pool.parallel_for pool ~lo:0 ~hi:400 (fun lo hi ->
      for i = lo to hi - 1 do
        let a = Mempool.alloc ~pooling:true shp in
        Ndarray.fill a (float_of_int i);
        let b = Mempool.alloc ~pooling:true [| 64 |] in
        Ndarray.fill b (float_of_int (i * 2));
        (* Values written before recycling must still be there: no two
           live allocations may share a buffer. *)
        intact.(i) <-
          Ndarray.get a [| 3; 3 |] = float_of_int i
          && Ndarray.get b [| 5 |] = float_of_int (i * 2);
        Mempool.recycle ~pooling:true a;
        Mempool.recycle ~pooling:true b
      done);
  Mg_smp.Domain_pool.shutdown pool;
  Alcotest.(check bool) "all live allocations intact" true (Array.for_all Fun.id intact);
  let reused, recycled = Mempool.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "pool cycled buffers (reused %d, recycled %d)" reused recycled)
    true
    (reused > 0 && recycled > 0);
  let a = Mempool.alloc ~pooling:true shp in
  Ndarray.fill a 3.0;
  Alcotest.(check (float 0.0)) "still usable after hammering" 3.0 (Ndarray.get a [| 0; 0 |])

let test_force_twice_same_array () =
  let shp = [| 8 |] in
  let node = Mg_arraylib.Ops.genarray_const shp 4.0 in
  let a = Wl.force node and b = Wl.force node in
  Alcotest.(check bool) "cached" true (a == b)

let suite =
  ( "exec_oracle",
    [ QCheck_alcotest.to_alcotest qcheck_linear_bodies;
      QCheck_alcotest.to_alcotest qcheck_replay_matches_oracle;
      QCheck_alcotest.to_alcotest qcheck_all_opt_levels;
      QCheck_alcotest.to_alcotest qcheck_scaled_reads;
      QCheck_alcotest.to_alcotest qcheck_cfun_bitwise_generic;
      Alcotest.test_case "cfun path exercised by qcheck" `Quick test_cfun_path_exercised;
      QCheck_alcotest.to_alcotest qcheck_stencil2_bitwise_generic;
      Alcotest.test_case "two-stencil kernel exercised by qcheck" `Quick test_stencil2_exercised;
      QCheck_alcotest.to_alcotest qcheck_pair_bitwise_members;
      Alcotest.test_case "pair kernel exercised by qcheck" `Quick test_pair_exercised;
      Alcotest.test_case "recompute after recycle" `Quick test_recompute_after_recycle;
      Alcotest.test_case "escaped values stable" `Quick test_escaped_values_stable;
      Alcotest.test_case "domain counts bitwise identical" `Quick
        test_domain_counts_bitwise_identical;
      Alcotest.test_case "mempool concurrent hammer" `Quick test_mempool_concurrent;
      Alcotest.test_case "force twice, same array" `Quick test_force_twice_same_array;
    ] )
