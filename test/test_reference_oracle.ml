(* Differential fuzzing of the staged executor against the reference
   interpreter (Reference): random producer/consumer with-loop programs
   — genarray, modarray and fold, with identity reads, offset stencils
   and self-referencing in-place hazards — run through every
   {reuse on/off} x {generic,cfun} x {block,chunked,tiled} configuration
   and held to the dirt-simple per-element evaluator BITWISE.

   Bitwise equality is achievable because the engine is run at fixed
   settings chosen to preserve the body's accumulation order exactly:

   - [fusion.fold = false]: every producer node materialises, so the
     consumer body's reads resolve to arrays and keep their shape;
   - [factor = false]: one Linform group per term, in term order, so
     the kernels evaluate [const +. c1 *. (0.0 +. r1) +. c2 *. ...]
     exactly like the left-associated expression tree — provided every
     read value is not [-0.0] (sources here are strictly positive and
     defaults are [+0.0]) and no two terms of a part share a
     coefficient bit pattern (Cluster merges same-coefficient reads of
     one buffer into a single group, reassociating the sum);
   - [line_buffers = false]: the line-buffered stencil kernel reorders
     partial sums;
   - [par_threshold = 1] on the oracle's own 3- and 2-domain pools:
     every part of rank > 0 takes the parallel split, so pool blocks
     actually shape pieces — a piece boundary must never change any
     element's arithmetic.

   Buffer reuse must be invisible in the values under every
   configuration: the suite also asserts that the in-place pass
   actually fired across the run, so the bitwise property is exercised
   with aliased outputs, not vacuously. *)

open Mg_ndarray
open Mg_withloop

let c_reuse_hits = Mg_obs.Metrics.counter "mempool.reuse_hits"

(* ------------------------------------------------------------------ *)
(* Random program specs                                                 *)

type kind = KGenFull | KGenPartial | KMod | KFold of int

type spec = {
  rank : int;
  extent : int;
  prad : int;  (* producer stencil radius over the leaf source *)
  pterms : (int list * float) list;  (* positive, distinct coefficients *)
  pconst : float;  (* > 0: producer values stay strictly positive *)
  crad : int;  (* consumer read radius over the producer *)
  cterms : (int list * float) list;  (* distinct coefficients *)
  cconst : float;
  border_coeff : float;  (* identity-read coefficient of border parts *)
  kind : kind;
  seed : int;
}

let kind_to_string = function
  | KGenFull -> "genarray-full"
  | KGenPartial -> "genarray-partial"
  | KMod -> "modarray"
  | KFold 0 -> "fold-add"
  | KFold 1 -> "fold-max"
  | KFold _ -> "fold-min"

let print_spec s =
  let terms ts =
    String.concat ";"
      (List.map
         (fun (d, c) ->
           Printf.sprintf "(%s)*%h" (String.concat "," (List.map string_of_int d)) c)
         ts)
  in
  Printf.sprintf "%s rank=%d extent=%d seed=%d prad=%d p=[%s]+%h crad=%d c=[%s]+%h border=%h"
    (kind_to_string s.kind) s.rank s.extent s.seed s.prad (terms s.pterms) s.pconst s.crad
    (terms s.cterms) s.cconst s.border_coeff

(* Drop terms whose coefficient bit pattern already appeared: Cluster
   merges same-coefficient reads of one buffer into one group, which
   reassociates the sum and breaks bitwise equality with the tree. *)
let distinct_terms ts =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun (_, c) ->
      let b = Int64.bits_of_float c in
      if Hashtbl.mem seen b then false
      else begin
        Hashtbl.add seen b ();
        true
      end)
    ts

let gen_spec =
  QCheck.Gen.(
    let* rank = 1 -- 3 in
    let* extent = 4 -- 6 in
    let* prad = 0 -- 1 in
    let* np = 1 -- 3 in
    let* pterms =
      list_size (return np)
        (pair (list_size (return rank) (-prad -- prad)) (float_range 0.25 2.0))
    in
    let* pconst = float_range 0.1 1.0 in
    let* crad = 0 -- 1 in
    let* nc = 1 -- 4 in
    let* cterms =
      list_size (return nc)
        (pair (list_size (return rank) (-crad -- crad)) (float_range (-2.0) 2.0))
    in
    let* cconst = float_range 0.1 1.0 in
    let* border_coeff = float_range 0.5 1.5 in
    let* kind =
      frequency
        [ (3, return KGenFull);
          (1, return KGenPartial);
          (2, return KMod);
          (1, map (fun i -> KFold i) (0 -- 2));
        ]
    in
    let* seed = 0 -- 10000 in
    return
      { rank;
        extent;
        prad;
        pterms = distinct_terms pterms;
        pconst;
        crad;
        cterms = distinct_terms cterms;
        cconst;
        border_coeff;
        kind;
        seed;
      })

let arb_spec = QCheck.make ~print:print_spec gen_spec

(* ------------------------------------------------------------------ *)
(* Graph construction (fresh IR per call: engine runs consume consumer
   edges and may overwrite operand buffers in place)                    *)

(* Strictly positive source values: every read then satisfies
   [0.0 +. r == r] bitwise (the group-sum seed the kernels insert). *)
let src_of_seed shp seed =
  let st = Mg_nasrand.Nasrand.make ~seed:(float_of_int (7919 + seed)) () in
  Ndarray.init shp (fun _ -> 0.5 +. Mg_nasrand.Nasrand.next st)

let lin base terms k =
  List.fold_left
    (fun acc (d, c) ->
      Ir.Add (acc, Ir.Mul (Ir.Const c, Ir.Read (base, Ixmap.offset (Array.of_list d)))))
    (Ir.Const k) terms

(* The standard box-border decomposition: disjoint slabs covering
   shape minus interior r, axis by axis. *)
let border_slabs shp r =
  let rank = Array.length shp in
  List.concat
    (List.init rank (fun j ->
         let base_lb = Array.init rank (fun i -> if i < j then r else 0) in
         let base_ub = Array.init rank (fun i -> if i < j then shp.(i) - r else shp.(i)) in
         let lo_ub = Array.copy base_ub in
         lo_ub.(j) <- r;
         let hi_lb = Array.copy base_lb in
         hi_lb.(j) <- shp.(j) - r;
         [ Generator.make ~lb:base_lb ~ub:lo_ub (); Generator.make ~lb:hi_lb ~ub:base_ub () ]))
  |> List.filter (fun g -> not (Generator.is_empty g))

type prog =
  | Parr of Ir.source
  | Pfold of Exec.fold_op * float * Generator.t * Ir.expr

let build s =
  let shp = Array.make s.rank s.extent in
  let src = src_of_seed shp s.seed in
  let pgen = if s.prad = 0 then Generator.full shp else Generator.interior shp s.prad in
  let producer =
    Ir.genarray shp [ { Ir.gen = pgen; body = lin (Ir.Arr src) s.pterms s.pconst } ]
  in
  let p = Ir.Node producer in
  let identity_term = (List.init s.rank (fun _ -> 0), s.border_coeff) in
  match s.kind with
  | KGenFull ->
      (* Fully covered: a reuse candidate.  With crad = 0 every read is
         an identity read (aliasing is legal); with crad = 1 the
         interior part reads offsets, so the analysis must refuse. *)
      let parts =
        if s.crad = 0 then [ { Ir.gen = Generator.full shp; body = lin p s.cterms s.cconst } ]
        else
          { Ir.gen = Generator.interior shp s.crad; body = lin p s.cterms s.cconst }
          :: List.map
               (fun g -> { Ir.gen = g; body = lin p [ identity_term ] s.cconst })
               (border_slabs shp s.crad)
      in
      Parr (Ir.Node (Ir.genarray shp parts))
  | KGenPartial ->
      Parr
        (Ir.Node
           (Ir.genarray shp
              [ { Ir.gen = Generator.interior shp (max 1 s.crad); body = lin p s.cterms s.cconst } ]))
  | KMod ->
      (* Self-referencing modarray: the base is also read by the part.
         The executor lowers the dense part plus its complement to a
         fully covered sweep, so with identity-only reads this aliases
         the base; with offsets it is the classic in-place hazard. *)
      Parr
        (Ir.Node
           (Ir.modarray p
              [ { Ir.gen = Generator.interior shp (max 1 s.crad); body = lin p s.cterms s.cconst } ]))
  | KFold i ->
      let op, neutral =
        match i with
        | 0 -> (Exec.Fadd, 0.0)
        | 1 -> (Exec.Fmax, neg_infinity)
        | _ -> (Exec.Fmin, infinity)
      in
      Pfold (op, neutral, Generator.interior shp (max 1 s.crad), lin p s.cterms s.cconst)

(* ------------------------------------------------------------------ *)
(* Running both sides                                                   *)

(* The oracle's own pools, independent of MG_PROCS and of the global
   engine: 3 domains cut parts into uneven blocks, 2 domains into the
   other block shapes.  With [par_threshold = 1] every part of rank > 0
   takes the parallel split. *)
let oracle_pool = lazy (Mg_smp.Domain_pool.create 3)
let pools = [ ("3 domains", oracle_pool); ("2 domains", lazy (Mg_smp.Domain_pool.create 2)) ]

let exec_settings ?(native = None) ?(par_threshold = 1) ?(fold = false) ~reuse ~cfun pool :
    Exec.settings =
  let pool = Lazy.force pool in
  Exec.make_settings
    ~fusion:{ Fusion.fold; split_strided = fold; split_threshold = 2048 }
    ~factor:false ~line_buffers:false ~cfun ~native ~reuse
    ~pooling:(Engine.config (Engine.current ())).Engine.pooling
    ~cache:(Plan_cache.create ()) ~shards:Mg_obs.Scope.unattributed
    ~pool:(fun () -> pool)
    ~par_threshold

type result = Rarr of Ndarray.t | Rscalar of float

let run_engine st = function
  | Parr (Ir.Arr a) -> Rarr a
  | Parr (Ir.Node n) -> Rarr (Exec.force st n)
  | Pfold (op, neutral, gen, body) -> Rscalar (Exec.eval_fold st ~op ~neutral gen body)

let run_reference = function
  | Parr s -> Rarr (Reference.run s)
  | Pfold (op, neutral, gen, body) ->
      Rscalar (Reference.fold ~op:(Exec.apply_op op) ~neutral gen body)

let bits = Int64.bits_of_float

let arr_bits_equal a b =
  Shape.equal (Ndarray.shape a) (Ndarray.shape b)
  &&
  let n = Ndarray.size a in
  let rec go i =
    i >= n || (Int64.equal (bits (Ndarray.get_flat a i)) (bits (Ndarray.get_flat b i)) && go (i + 1))
  in
  go 0

let result_bits_equal got want =
  match (got, want) with
  | Rarr a, Rarr b -> arr_bits_equal a b
  | Rscalar x, Rscalar y -> Int64.equal (bits x) (bits y)
  | _ -> false

let first_diff a b =
  match (a, b) with
  | Rarr a, Rarr b ->
      let n = Ndarray.size a in
      let rec go i =
        if i >= n then "shapes differ"
        else if not (Int64.equal (bits (Ndarray.get_flat a i)) (bits (Ndarray.get_flat b i))) then
          Printf.sprintf "flat %d: engine %h, reference %h" i (Ndarray.get_flat a i)
            (Ndarray.get_flat b i)
        else go (i + 1)
      in
      go 0
  | Rscalar x, Rscalar y -> Printf.sprintf "fold: engine %h, reference %h" x y
  | _ -> "result kinds differ"

(* Whether any reuse=on configuration actually aliased a buffer during
   the qcheck run (checked afterwards: the property must not hold
   vacuously with the pass never firing). *)
let reuse_fired = ref 0

let with_mempool_debug f =
  let saved = Mempool.get_debug () in
  Mempool.set_debug true;
  Fun.protect ~finally:(fun () -> Mempool.set_debug saved) f

let run_spec s =
  with_mempool_debug (fun () ->
      let reference = run_reference (build s) in
      let failures = ref [] in
      let check name st =
        let got = run_engine st (build s) in
        if not (result_bits_equal got reference) then
          failures := Printf.sprintf "%s: %s" name (first_diff got reference) :: !failures
      in
      let h0 = Mg_obs.Metrics.value c_reuse_hits in
      List.iter
        (fun reuse ->
          List.iter
            (fun cfun ->
              List.iter
                (fun (pname, pool) ->
                  check
                    (Printf.sprintf "reuse=%b cfun=%b %s" reuse cfun pname)
                    (exec_settings ~reuse ~cfun pool))
                pools)
            [ false; true ])
        [ false; true ];
      (* One more leg on the default-style configuration: the second
         structurally identical force replays from the plan cache, so
         the OReuse replay arm is held to the reference too. *)
      check "replay reuse=true cfun=true 3 domains" (exec_settings ~reuse:true ~cfun:true oracle_pool);
      if Mg_obs.Metrics.value c_reuse_hits > h0 then incr reuse_fired;
      if !failures <> [] then
        QCheck.Test.fail_reportf "engine deviates from reference interpreter:\n  %s"
          (String.concat "\n  " (List.rev !failures))
      else true)

let qcheck_engine_matches_reference =
  QCheck.Test.make ~name:"every engine configuration bitwise matches the reference interpreter"
    ~count:320 arb_spec run_spec

let test_reuse_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples fired the in-place pass (%d did)" !reuse_fired)
    true (!reuse_fired > 0)

(* ------------------------------------------------------------------ *)
(* Targeted reuse / mempool regressions                                 *)

let pointwise_chain shp =
  let src = src_of_seed shp 42 in
  let producer =
    Ir.genarray shp
      [ { Ir.gen = Generator.full shp;
          body = lin (Ir.Arr src) [ (List.init (Array.length shp) (fun _ -> 0), 1.25) ] 0.5;
        }
      ]
  in
  let consumer =
    Ir.genarray shp
      [ { Ir.gen = Generator.full shp;
          body = lin (Ir.Node producer) [ (List.init (Array.length shp) (fun _ -> 0), 0.75) ] 0.25;
        }
      ]
  in
  (producer, consumer)

(* A dying pointwise operand IS aliased: the consumer writes through
   the producer's buffer, the hit counter moves, and the producer
   transparently recomputes (bitwise) if forced again afterwards. *)
let test_reuse_aliases_dead_operand () =
  with_mempool_debug (fun () ->
      let st = exec_settings ~reuse:true ~cfun:true oracle_pool in
      let producer, consumer = pointwise_chain [| 6; 6; 6 |] in
      let pbuf = (Exec.force st producer).Ndarray.data in
      let h0 = Mg_obs.Metrics.value c_reuse_hits in
      let out = Exec.force st consumer in
      Alcotest.(check bool) "consumer wrote through the dead producer's buffer" true
        (out.Ndarray.data == pbuf);
      Alcotest.(check int) "mempool.reuse_hits counted the aliasing" (h0 + 1)
        (Mg_obs.Metrics.value c_reuse_hits);
      Alcotest.(check bool) "aliased values bitwise match the reference" true
        (arr_bits_equal out (Reference.run (Ir.Node consumer)));
      (* The overwritten producer's cache was dropped; forcing it again
         must recompute the original values, not observe the update. *)
      Alcotest.(check bool) "overwritten producer recomputes bitwise" true
        (arr_bits_equal (Exec.force st producer) (Reference.run (Ir.Node producer))))

(* A cfun body whose identity read of the dying operand is its second
   cluster, after a leaf read twice with two coefficients (two groups of
   one cluster, which no fixed kernel takes): every kernel reads an
   element's operands before its single write, so the output aliases
   the operand whatever cluster reads it. *)
let test_reuse_cfun_later_cluster () =
  with_mempool_debug (fun () ->
      let shp = [| 6; 6; 6 |] in
      let st = exec_settings ~reuse:true ~cfun:true oracle_pool in
      let producer =
        Ir.genarray shp
          [ { Ir.gen = Generator.full shp;
              body = lin (Ir.Arr (src_of_seed shp 42)) [ ([ 0; 0; 0 ], 1.25) ] 0.5;
            }
          ]
      in
      let body =
        Ir.Add
          ( lin (Ir.Arr (src_of_seed shp 11)) [ ([ 0; 0; 0 ], 0.5); ([ 0; 0; 0 ], -0.25) ] 0.125,
            Ir.Mul (Ir.Const 1.0625, Ir.Read (Ir.Node producer, Ixmap.identity 3)) )
      in
      let consumer = Ir.genarray shp [ { Ir.gen = Generator.full shp; body } ] in
      let pbuf = (Exec.force st producer).Ndarray.data in
      let h0 = Mg_obs.Metrics.value c_reuse_hits and c0 = Mg_obs.Metrics.value Kernel.c_cfun in
      let out = Exec.force st consumer in
      Alcotest.(check bool) "the body ran on cfun" true (Mg_obs.Metrics.value Kernel.c_cfun > c0);
      Alcotest.(check bool) "consumer wrote through the dead producer's buffer" true
        (out.Ndarray.data == pbuf);
      Alcotest.(check int) "mempool.reuse_hits counted the aliasing" (h0 + 1)
        (Mg_obs.Metrics.value c_reuse_hits);
      Alcotest.(check bool) "aliased values bitwise match the reference" true
        (arr_bits_equal out (Reference.run (Ir.Node consumer))))

(* With reuse off the same program must allocate. *)
let test_reuse_off_allocates () =
  let st = exec_settings ~reuse:false ~cfun:true oracle_pool in
  let producer, consumer = pointwise_chain [| 6; 6; 6 |] in
  let pbuf = (Exec.force st producer).Ndarray.data in
  let h0 = Mg_obs.Metrics.value c_reuse_hits in
  let out = Exec.force st consumer in
  Alcotest.(check bool) "distinct buffer with reuse off" true (out.Ndarray.data != pbuf);
  Alcotest.(check int) "no reuse hit" h0 (Mg_obs.Metrics.value c_reuse_hits)

(* A hazardous consumer — its interior part reads the dying operand at
   non-identity offsets — must never be aliased, under either kernel
   path, even though the plan is fully covered and the operand dead. *)
let test_hazard_never_aliased () =
  List.iter
    (fun cfun ->
      with_mempool_debug (fun () ->
          let shp = [| 6; 6; 6 |] in
          let src = src_of_seed shp 7 in
          let producer =
            Ir.genarray shp
              [ { Ir.gen = Generator.full shp; body = lin (Ir.Arr src) [ ([ 0; 0; 0 ], 1.5) ] 0.25 } ]
          in
          let p = Ir.Node producer in
          let parts =
            { Ir.gen = Generator.interior shp 1;
              body = lin p [ ([ 0; 0; 1 ], 0.5); ([ -1; 0; 0 ], 0.75) ] 0.125;
            }
            :: List.map
                 (fun g -> { Ir.gen = g; body = lin p [ ([ 0; 0; 0 ], 1.0625) ] 0.125 })
                 (border_slabs shp 1)
          in
          let consumer = Ir.genarray shp parts in
          let st = exec_settings ~reuse:true ~cfun oracle_pool in
          let pbuf = (Exec.force st producer).Ndarray.data in
          let h0 = Mg_obs.Metrics.value c_reuse_hits in
          let out = Exec.force st consumer in
          Alcotest.(check bool)
            (Printf.sprintf "hazardous cluster not aliased (cfun=%b)" cfun)
            true
            (out.Ndarray.data != pbuf);
          Alcotest.(check int) "no reuse hit on hazard" h0 (Mg_obs.Metrics.value c_reuse_hits);
          Alcotest.(check bool) "hazardous sweep bitwise matches reference" true
            (arr_bits_equal out (Reference.run (Ir.Node consumer)))))
    [ false; true ]

(* One-thick parts read at identity too: a 6^3 consumer whose interior
   and six border slabs each read the dying producer at identity must
   write through the producer's buffer.  On a slab's one-coordinate
   axis the read step is 0 while the output keeps its stride, so the
   identity test compares steps only on axes that advance — for
   pool-split parts (par_threshold 1) and for the slabs' shell group
   (par_threshold max_int) alike. *)
let test_reuse_through_one_thick_parts () =
  List.iter
    (fun (cfun, par_threshold) ->
      with_mempool_debug (fun () ->
          let shp = [| 6; 6; 6 |] in
          let producer =
            Ir.genarray shp
              [ { Ir.gen = Generator.full shp;
                  body = lin (Ir.Arr (src_of_seed shp 5)) [ ([ 0; 0; 0 ], 1.5) ] 0.25;
                }
              ]
          in
          let p = Ir.Node producer in
          let consumer =
            Ir.genarray shp
              (List.mapi
                 (fun i g ->
                   { Ir.gen = g; body = lin p [ ([ 0; 0; 0 ], 1.0625 +. float_of_int i) ] 0.125 })
                 (Generator.interior shp 1 :: border_slabs shp 1))
          in
          let st = exec_settings ~par_threshold ~reuse:true ~cfun oracle_pool in
          let what = Printf.sprintf "(cfun=%b, par_threshold=%d)" cfun par_threshold in
          let pbuf = (Exec.force st producer).Ndarray.data in
          let h0 = Mg_obs.Metrics.value c_reuse_hits
          and g0 = List.assoc "shell" (Kernel.branch_counts ()) in
          let out = Exec.force st consumer in
          Alcotest.(check bool) ("consumer wrote through the dead producer's buffer " ^ what) true
            (out.Ndarray.data == pbuf);
          Alcotest.(check int) ("mempool.reuse_hits counted the aliasing " ^ what) (h0 + 1)
            (Mg_obs.Metrics.value c_reuse_hits);
          if par_threshold = max_int then
            Alcotest.(check int) ("the slabs ran as one shell group " ^ what) (g0 + 1)
              (List.assoc "shell" (Kernel.branch_counts ()));
          Alcotest.(check bool) ("aliased values bitwise match the reference " ^ what) true
            (arr_bits_equal out (Reference.run (Ir.Node consumer)))))
    [ (false, 1); (true, 1); (false, max_int); (true, max_int) ]

(* An operand that escaped through Wl.force belongs to user code and
   must never be overwritten, dead refcount or not. *)
let test_escaped_operand_not_aliased () =
  let st = exec_settings ~reuse:true ~cfun:true oracle_pool in
  let producer, consumer = pointwise_chain [| 5; 5 |] in
  let parr = Exec.force st producer in
  Ir.mark_escaped producer;
  let snapshot = Ndarray.copy parr in
  let out = Exec.force st consumer in
  Alcotest.(check bool) "escaped operand buffer left alone" true
    (out.Ndarray.data != parr.Ndarray.data);
  Alcotest.(check bool) "escaped values untouched" true (Ndarray.equal parr snapshot)

(* Debug-mode mempool guards: double recycle and pooled-buffer aliasing
   are hard failures.  Both need the pool active, whatever MG_POOLING
   the suite leg runs under. *)
let test_debug_double_recycle () =
  with_mempool_debug (fun () ->
      let a = Mempool.alloc ~pooling:true [| 11; 3 |] in
      Mempool.recycle ~pooling:true a;
      Alcotest.check_raises "double recycle detected"
        (Failure "Mempool: double recycle of a pooled buffer") (fun () ->
          Mempool.recycle ~pooling:true a))

let test_assert_unpooled () =
  let a = Mempool.alloc ~pooling:true [| 13 |] in
  Mempool.assert_unpooled a.Ndarray.data ~ctx:"live buffer";
  Mempool.recycle ~pooling:true a;
  Alcotest.check_raises "pooled buffer flagged"
    (Failure "Mempool: in-place output aliases a pooled (free) buffer") (fun () ->
      Mempool.assert_unpooled a.Ndarray.data ~ctx:"in-place output")

(* ------------------------------------------------------------------ *)
(* The native AOT tier: dlopen'd C kernels held to the reference
   interpreter bitwise, like every staged tier above.  The C emitter
   replicates the generic nest's accumulation order and is compiled
   with -ffp-contract=off, so bitwise equality — not tolerance — is
   the contract here too.  Only rank-3 unrecognised bodies reach the
   native rung (fixed kernels and lower ranks keep their tiers), so a
   counter-backed non-vacuity check asserts the tier genuinely fired
   across the qcheck run. *)

let c_native_kernels = Mg_obs.Metrics.counter "kernel.native"

(* Relative: lands in the dune test cwd (_build/default/test), shared
   with the default settings dir so compiled objects deduplicate. *)
let native_dir = "_mg_native"

let native_fired = ref 0

(* The native rung sits below the fixed kernels: single-cluster bodies
   with <= 8 reads take [K3flat] and single-read clusters take
   [K3zip], so a spec must carry a dense consumer body to compile
   natively.  Pad rank-3 consumers past the flat threshold with
   identity-read terms — exact binary fractions, so the coefficient
   bit patterns stay distinct and the bitwise preconditions hold. *)
let densify s =
  if s.rank <> 3 then s
  else
    let pad =
      List.init 9 (fun i ->
          (List.init 3 (fun _ -> 0), 0.015625 +. (float_of_int i *. 0.0078125)))
    in
    { s with cterms = distinct_terms (s.cterms @ pad) }

let run_spec_native s =
  let s = densify s in
  with_mempool_debug (fun () ->
      let reference = run_reference (build s) in
      let failures = ref [] in
      let n0 = Mg_obs.Metrics.value c_native_kernels in
      List.iter
        (fun reuse ->
          List.iter
            (fun (pname, pool) ->
              let st = exec_settings ~native:(Some native_dir) ~reuse ~cfun:true pool in
              let got = run_engine st (build s) in
              if not (result_bits_equal got reference) then
                failures :=
                  Printf.sprintf "native reuse=%b %s: %s" reuse pname (first_diff got reference)
                  :: !failures)
            pools)
        [ false; true ];
      if Mg_obs.Metrics.value c_native_kernels > n0 then incr native_fired;
      if !failures <> [] then
        QCheck.Test.fail_reportf "native tier deviates from reference interpreter:\n  %s"
          (String.concat "\n  " (List.rev !failures))
      else true)

let qcheck_native_matches_reference =
  QCheck.Test.make ~name:"native AOT kernels bitwise match the reference interpreter" ~count:60
    arb_spec run_spec_native

let test_native_exercised () =
  Alcotest.(check bool)
    (Printf.sprintf "qcheck samples dispatched native kernels (%d did)" !native_fired)
    true (!native_fired > 0)

(* A rank-3 asymmetric body dense enough (9 reads, one cluster) that
   no fixed kernel takes it: guaranteed to reach the native rung when
   the tier is on.  [c] keys the content digest per test. *)
let native_graph shp src c =
  let terms =
    ([ 0; 0; 1 ], c) :: ([ 1; 0; 0 ], -0.75) :: ([ 0; -1; 0 ], 1.25)
    :: List.init 6 (fun i -> ([ 0; 0; 0 ], 0.03125 +. (float_of_int i *. 0.0078125)))
  in
  Ir.Node
    (Ir.genarray shp
       [ { Ir.gen = Generator.interior shp 1; body = lin (Ir.Arr src) terms 0.125 } ])

(* A fresh cache directory under the system temp dir, removed with
   everything the test compiled into it however the test ends. *)
let with_cache_dir prefix f =
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let dir = Filename.temp_dir prefix "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Cold compile, then a simulated process restart: the in-memory memo
   is dropped and the plan recompiled from scratch (fresh settings =
   fresh plan cache), so the kernel must come back from the on-disk
   shared-object cache — zero new cc invocations, bitwise-identical
   values. *)
let test_native_disk_cache_restart () =
  Native.reset_for_tests ();
  with_cache_dir "mg_native_restart" @@ fun dir ->
  let shp = [| 8; 8; 8 |] in
  let src = src_of_seed shp 11 in
  let force () =
    let st = exec_settings ~native:(Some dir) ~reuse:false ~cfun:true oracle_pool in
    match run_engine st (Parr (native_graph shp src 0.5)) with
    | Rarr a -> a
    | Rscalar _ -> assert false
  in
  let n0 = Mg_obs.Metrics.value c_native_kernels in
  let compiles0 = Mg_obs.Metrics.value (Mg_obs.Scope.total Native.compiles) in
  let cold = force () in
  Alcotest.(check bool) "cold force dispatched the native kernel" true
    (Mg_obs.Metrics.value c_native_kernels > n0);
  Alcotest.(check bool) "cold force invoked the compiler" true
    (Mg_obs.Metrics.value (Mg_obs.Scope.total Native.compiles) > compiles0);
  Native.reset_for_tests ();
  let compiles1 = Mg_obs.Metrics.value (Mg_obs.Scope.total Native.compiles) in
  let disk0 = Mg_obs.Metrics.value Native.c_disk_hits in
  let warm = force () in
  Alcotest.(check int) "restart recompiled nothing" compiles1
    (Mg_obs.Metrics.value (Mg_obs.Scope.total Native.compiles));
  Alcotest.(check bool) "restart loaded the cached shared object" true
    (Mg_obs.Metrics.value Native.c_disk_hits > disk0);
  Alcotest.(check bool) "cached .so bitwise identical to cold compile" true
    (arr_bits_equal cold warm);
  Alcotest.(check bool) "both bitwise match the reference" true
    (arr_bits_equal cold
       (match run_reference (Parr (native_graph shp src 0.5)) with
       | Rarr a -> a
       | Rscalar _ -> assert false))

(* Graceful degradation: with the compiler poisoned (MG_CC pointing at
   a nonexistent binary) the native tier must fail closed — failure
   counted, no native dispatch — while the force transparently lands
   on the cfun tier and still bitwise matches the reference. *)
let test_native_cc_poisoned () =
  let saved_cc = Sys.getenv_opt "MG_CC" in
  Unix.putenv "MG_CC" "/nonexistent/mg-cc";
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset: fall back to the default command. *)
      Unix.putenv "MG_CC" (Option.value saved_cc ~default:"cc");
      Native.reset_for_tests ())
    (fun () ->
      Native.reset_for_tests ();
      with_cache_dir "mg_native_poison" @@ fun dir ->
      let shp = [| 8; 8; 8 |] in
      let src = src_of_seed shp 13 in
      (* Fresh coefficient: neither the memo nor any disk cache can
         already hold this kernel. *)
      let g () = Parr (native_graph shp src 0.6180339887) in
      let st = exec_settings ~native:(Some dir) ~reuse:false ~cfun:true oracle_pool in
      let f0 = Mg_obs.Metrics.value (Mg_obs.Scope.total Native.failures) in
      let n0 = Mg_obs.Metrics.value c_native_kernels in
      let got = run_engine st (g ()) in
      Alcotest.(check bool) "poisoned compiler counted a failure" true
        (Mg_obs.Metrics.value (Mg_obs.Scope.total Native.failures) > f0);
      Alcotest.(check int) "no native kernel dispatched" n0
        (Mg_obs.Metrics.value c_native_kernels);
      Alcotest.(check bool) "cfun fallback bitwise matches the reference" true
        (result_bits_equal got (run_reference (g ()))))

(* The full-solve acceptance matrix: class-tiny rnm2 is bitwise
   invariant across {generic,cfun,native} x {1,3,4} domains. *)
let test_driver_tiers_bitwise () =
  let rnm2 ~cfun ~native ~threads =
    (Mg_core.Driver.run ~opt:Engine.O3 ~threads ~cfun ~native ~impl:Mg_core.Driver.Sac
       ~cls:Mg_core.Classes.tiny ())
      .Mg_core.Driver.rnm2
  in
  let want = rnm2 ~cfun:false ~native:false ~threads:1 in
  List.iter
    (fun (cfun, native) ->
      List.iter
        (fun threads ->
          let got = rnm2 ~cfun ~native ~threads in
          Alcotest.(check bool)
            (Printf.sprintf "cfun=%b native=%b t=%d rnm2 bitwise" cfun native threads)
            true
            (Int64.equal (bits got) (bits want)))
        [ 1; 3; 4 ])
    [ (false, false); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* The fixed kernels' branches.  Kernel picks one row loop per call
   from the body's shape: a box stencil's coefficient pattern and extra
   count (plain and line-buffered), a flat body's read count, a zip's
   cluster count.  Every
   specialised loop must equal the general fallback bitwise, and the
   oracle checks that through the reference interpreter: the bodies
   below spell out each kernel's own association — the stencil classes
   summed in the kernel's order, then each extra — with every
   coefficient distinct, so factoring makes one group per class and
   one cluster per extra, and the tree evaluates in the kernel's
   order.  Degenerate m×m×1, m×1×m and 1×m×m pieces exercise the zip
   and flat row selection; output stride 2 (reads divided by 2) and
   extras read at stride 2 walk the rows with non-unit steps. *)

let fixed_settings ?(fold = false) ~line_buffers pool : Exec.settings =
  { (exec_settings ~fold ~reuse:false ~cfun:true pool) with Exec.factor = true; line_buffers }

(* Output stride along the row axis: [Unit]; [Out2], output step 2
   with reads divided by 2 (the prolongation's layout); [Extras2],
   extras read at twice the output index. *)
type layout = Unit | Out2 | Extras2

let layout_name = function Unit -> "unit" | Out2 -> "out2" | Extras2 -> "extras2"

type fixed =
  | Fstencil of {
      classes : bool * bool * bool;  (* c1 faces, c2 edges, c3 corners *)
      extras : int;
      layout : layout;
      line_buffers : bool;
      dims : int array;  (* the source's shape *)
    }
  | Fstencil2 of {
      patterns : (bool * bool * bool) * (bool * bool * bool);
          (* c1, c2, c3 of the step-2 and of the unit-step stencil *)
      extras : int;  (* single reads: the first between the stencils *)
      box_order : bool;
          (* classes in decreasing order, neighbours in box order:
             [Stencil.body]'s shape *)
      dims : int array;  (* the output's shape; the step-2 source is twice it *)
    }
  | Fflat of { offsets : int list list; box : int array; step2 : bool }
  | Fzip of { offsets : int list list; box : int array; step2 : bool }
  | Fshell of { reads : int; copy : bool; dims : int array }
      (* a genarray's six shell slabs, each a zip of [reads] arrays at
         their wrap offsets (or, with [copy], an identity copy), around
         an interior zip: one shell group *)
  | Fborder of { dims : int array }
      (* the periodic border of a node it alone reads: it steals the
         node's buffer and, with folding on, runs as one walk *)

let print_fixed = function
  | Fstencil { classes = c1, c2, c3; extras; layout; line_buffers; dims } ->
      Printf.sprintf "stencil c1=%b c2=%b c3=%b extras=%d layout=%s line_buffers=%b dims=%s" c1 c2
        c3 extras (layout_name layout) line_buffers (Shape.to_string dims)
  | Fstencil2 { patterns = (a1, a2, a3), (b1, b2, b3); extras; box_order; dims } ->
      Printf.sprintf "stencil2 step2=%b,%b,%b unit=%b,%b,%b extras=%d box_order=%b dims=%s" a1 a2 a3
        b1 b2 b3 extras box_order (Shape.to_string dims)
  | Fflat { offsets; box; step2 } ->
      Printf.sprintf "flat reads=%d box=%s step2=%b" (List.length offsets) (Shape.to_string box) step2
  | Fzip { offsets; box; step2 } ->
      Printf.sprintf "zip clusters=%d box=%s step2=%b" (List.length offsets) (Shape.to_string box)
        step2
  | Fshell { reads; copy; dims } ->
      Printf.sprintf "shell reads=%d copy=%b dims=%s" reads copy (Shape.to_string dims)
  | Fborder { dims } -> Printf.sprintf "border dims=%s" (Shape.to_string dims)

let sum = function [] -> invalid_arg "sum" | e :: es -> List.fold_left (fun a b -> Ir.Add (a, b)) e es
let axpy acc c e = Ir.Add (acc, Ir.Mul (Ir.Const c, e))

(* Distinct coefficients: [coeff i] for the i-th term of a body. *)
let coeff i = (if i mod 2 = 0 then 1.0 else -1.0) *. (0.3125 +. (float_of_int i *. 0.0859375))

(* The plain nest's class sums ([Kernel.faces]/[edges]/[corners]). *)
let faces_plain r =
  sum (List.map r [ [ 0; 0; -1 ]; [ 0; 0; 1 ]; [ 0; -1; 0 ]; [ 0; 1; 0 ]; [ -1; 0; 0 ]; [ 1; 0; 0 ] ])

let edges_plain r =
  sum
    (List.map r
       [ [ 0; -1; -1 ]; [ 0; -1; 1 ]; [ 0; 1; -1 ]; [ 0; 1; 1 ]; [ -1; 0; -1 ]; [ -1; 0; 1 ];
         [ 1; 0; -1 ]; [ 1; 0; 1 ]; [ -1; -1; 0 ]; [ -1; 1; 0 ]; [ 1; -1; 0 ]; [ 1; 1; 0 ] ])

let corners_plain r =
  sum
    (List.map r
       [ [ -1; -1; -1 ]; [ -1; -1; 1 ]; [ -1; 1; -1 ]; [ -1; 1; 1 ]; [ 1; -1; -1 ]; [ 1; -1; 1 ];
         [ 1; 1; -1 ]; [ 1; 1; 1 ] ])

(* The line-buffered nest's: plane sums [u1]/[u2] at inner offset [d]
   combined as [lb_faces]/[lb_edges]/[lb_corners] combine them. *)
let u1 r d = sum (List.map r [ [ 0; -1; d ]; [ 0; 1; d ]; [ -1; 0; d ]; [ 1; 0; d ] ])
let u2 r d = sum (List.map r [ [ -1; -1; d ]; [ -1; 1; d ]; [ 1; -1; d ]; [ 1; 1; d ] ])
let faces_lb r = Ir.Add (Ir.Add (r [ 0; 0; -1 ], r [ 0; 0; 1 ]), u1 r 0)
let edges_lb r = Ir.Add (Ir.Add (u2 r 0, u1 r (-1)), u1 r 1)
let corners_lb r = Ir.Add (u2 r (-1), u2 r 1)

(* A read of [a] at neighbour offset [d]; with [div2] the last axis is
   divided by 2 (offsets scale with it). *)
let read ?(div2 = false) a d =
  let d = Array.of_list d in
  let map =
    if div2 then Ixmap.make ~offset:[| d.(0); d.(1); 2 * d.(2) |] ~div:[| 1; 1; 2 |] 3
    else Ixmap.offset d
  in
  Ir.Read (Ir.Arr a, map)

(* The 27 offsets of a box, in box order (outer axis first). *)
let neighbours =
  List.concat_map
    (fun a -> List.concat_map (fun b -> List.map (fun c -> [ a; b; c ]) [ -1; 0; 1 ]) [ -1; 0; 1 ])
    [ -1; 0; 1 ]

(* The periodic wrap of a slab: the opposite interior plane on each
   axis where the slab sits at index 0 or n-1. *)
let wrap_of shp (g : Generator.t) =
  Array.mapi
    (fun j n ->
      if g.Generator.lb.(j) = 0 && g.Generator.ub.(j) = 1 then n - 2
      else if g.Generator.lb.(j) = n - 1 then 2 - n
      else 0)
    shp

(* The 26 regions [Border.setup_periodic_border] writes, in its order. *)
let regions shp =
  List.filter_map
    (fun sign ->
      if List.for_all (fun x -> x = 0) sign then None
      else
        let sign = Array.of_list sign in
        let lb = Array.mapi (fun i x -> if x > 0 then shp.(i) - 1 else if x = 0 then 1 else 0) sign in
        let ub = Array.mapi (fun i x -> if x < 0 then 1 else if x = 0 then shp.(i) - 1 else shp.(i)) sign in
        Some (Generator.make ~lb ~ub ()))
    neighbours

(* [Border.setup_periodic_border] on the IR: every face, edge and
   corner slab reads the opposite interior plane. *)
let periodic_border src =
  let shp = Ir.source_shape src in
  Ir.Node
    (Ir.modarray ~barrier:true src
       (List.map (fun g -> { Ir.gen = g; body = Ir.Read (src, Ixmap.offset (wrap_of shp g)) }) (regions shp)))

(* With [inf], the stencil's source holds one infinite element. *)
let build_fixed ?(inf = false) seed = function
  | Fstencil { classes = c1, c2, c3; extras; layout; line_buffers; dims } ->
      let src = src_of_seed dims seed in
      if inf then Ndarray.set src [| 2; 2; 3 |] infinity;
      let lb = line_buffers && (c2 || c3) in
      let r = read ~div2:(layout = Out2) src in
      let shp = if layout = Out2 then [| dims.(0); dims.(1); 2 * dims.(2) |] else dims in
      let gen =
        if layout = Out2 then
          Generator.make ~step:[| 1; 1; 2 |] ~lb:[| 1; 1; 2 |]
            ~ub:[| dims.(0) - 1; dims.(1) - 1; 2 * (dims.(2) - 1) |]
            ()
        else Generator.interior shp 1
      in
      let body = axpy (Ir.Const 0.375) (coeff 0) (r [ 0; 0; 0 ]) in
      let body = if c1 then axpy body (coeff 1) ((if lb then faces_lb else faces_plain) r) else body in
      let body = if c2 then axpy body (coeff 2) ((if lb then edges_lb else edges_plain) r) else body in
      let body =
        if c3 then axpy body (coeff 3) ((if lb then corners_lb else corners_plain) r) else body
      in
      let body =
        List.fold_left
          (fun body e ->
            let x =
              if layout = Extras2 then
                Ir.Read
                  ( Ir.Arr (src_of_seed [| shp.(0); shp.(1); 2 * shp.(2) |] (seed + e + 1)),
                    Ixmap.make ~scale:[| 1; 1; 2 |] 3 )
              else read (src_of_seed shp (seed + e + 1)) [ 0; 0; 0 ]
            in
            axpy body (coeff (4 + e)) x)
          body (List.init extras Fun.id)
      in
      Ir.genarray shp [ { Ir.gen; body } ]
  | Fstencil2 { patterns = pa, pb; extras; box_order; dims } ->
      (* The fused restriction + residual shape: a stencil over a
         twice-finer source at step 2, then one over an output-sized
         source at step 1, coefficients distinct throughout, so the
         tree's association is the generic nest's (clusters in order,
         groups in order, each group's reads summed in order). *)
      let fine = src_of_seed (Array.map (fun d -> 2 * d) dims) seed in
      let fine_read d =
        Ir.Read (Ir.Arr fine, Ixmap.make ~scale:[| 2; 2; 2 |] ~offset:(Array.of_list d) 3)
      in
      let stencil k r (c1, c2, c3) body =
        if box_order then
          let cls c = List.filter (fun d -> List.fold_left (fun n x -> n + abs x) 0 d = c) neighbours in
          let body = if c3 then axpy body (coeff (k + 3)) (sum (List.map r (cls 3))) else body in
          let body = if c2 then axpy body (coeff (k + 2)) (sum (List.map r (cls 2))) else body in
          let body = if c1 then axpy body (coeff (k + 1)) (sum (List.map r (cls 1))) else body in
          axpy body (coeff k) (r [ 0; 0; 0 ])
        else
          let body = axpy body (coeff k) (r [ 0; 0; 0 ]) in
          let body = if c1 then axpy body (coeff (k + 1)) (faces_plain r) else body in
          let body = if c2 then axpy body (coeff (k + 2)) (edges_plain r) else body in
          if c3 then axpy body (coeff (k + 3)) (corners_plain r) else body
      in
      let extra e body =
        if e < extras then axpy body (coeff (8 + e)) (read (src_of_seed dims (seed + e + 2)) [ 0; 0; 0 ])
        else body
      in
      let body = stencil 0 fine_read pa (Ir.Const 0.375) |> extra 0 in
      let body = stencil 4 (read (src_of_seed dims (seed + 1))) pb body |> extra 1 |> extra 2 in
      Ir.genarray dims [ { Ir.gen = Generator.interior dims 1; body } ]
  | Fflat { offsets; box; step2 } | Fzip { offsets; box; step2 } as f ->
      let dims = Array.map (fun n -> n + 2) box in
      let shp = if step2 then Array.map (fun n -> 2 * n) dims else dims in
      let gen =
        if step2 then
          Generator.make ~step:[| 2; 2; 2 |] ~lb:[| 2; 2; 2 |]
            ~ub:(Array.map (fun n -> (2 * n) + 2) box)
            ()
        else Generator.make ~lb:[| 1; 1; 1 |] ~ub:(Array.map (fun n -> n + 1) box) ()
      in
      let map d =
        if step2 then
          Ixmap.make ~offset:(Array.map (fun d -> 2 * d) (Array.of_list d)) ~div:[| 2; 2; 2 |] 3
        else Ixmap.offset (Array.of_list d)
      in
      let flat = match f with Fflat _ -> true | _ -> false in
      let src = src_of_seed dims seed in
      let body =
        List.fold_left
          (fun body (i, d) ->
            let a = if flat then src else src_of_seed dims (seed + i + 1) in
            axpy body (coeff i) (Ir.Read (Ir.Arr a, map d)))
          (Ir.Const 0.375)
          (List.mapi (fun i d -> (i, d)) offsets)
      in
      Ir.genarray shp [ { Ir.gen; body } ]
  | Fshell { reads; copy; dims } ->
      let srcs = Array.init (max 1 reads) (fun i -> src_of_seed dims (seed + i)) in
      let slab (g : Generator.t) =
        let body =
          if copy then Ir.Read (Ir.Arr srcs.(0), Ixmap.identity 3)
          else
            let wrap = wrap_of dims g in
            (* A const with a full significand: the source values have
               46 bits, so without it these sums are exact in any order. *)
            List.fold_left
              (fun body i -> axpy body (coeff i) (Ir.Read (Ir.Arr srcs.(i), Ixmap.offset wrap)))
              (Ir.Const 0.1) (List.init reads Fun.id)
        in
        { Ir.gen = g; body }
      in
      let slabs = List.map slab (border_slabs dims 1) in
      let interior =
        { Ir.gen = Generator.interior dims 1;
          body = axpy (Ir.Const 0.25) (coeff 7) (read srcs.(0) [ 0; 0; 0 ]);
        }
      in
      Ir.genarray dims (List.filteri (fun i _ -> i < 3) slabs @ (interior :: List.filteri (fun i _ -> i >= 3) slabs))
  | Fborder { dims } -> (
      let base =
        Ir.genarray dims
          [ { Ir.gen = Generator.full dims;
              body = axpy (Ir.Const 0.25) (coeff 0) (read (src_of_seed dims seed) [ 0; 0; 0 ]);
            }
          ]
      in
      match periodic_border (Ir.Node base) with Ir.Node n -> n | Ir.Arr _ -> assert false)

let run_fixed ?inf seed f =
  let line_buffers = match f with Fstencil { line_buffers; _ } -> line_buffers | _ -> false in
  let fold = match f with Fborder _ -> true | _ -> false in
  let want = Reference.run (Ir.Node (build_fixed ?inf seed f)) in
  List.filter_map
    (fun (pname, pool) ->
      let st = fixed_settings ~fold ~line_buffers pool in
      (* Cold compile, then a replay of the cached plan. *)
      let got = List.init 2 (fun _ -> Exec.force st (build_fixed ?inf seed f)) in
      if List.for_all (fun g -> arr_bits_equal g want) got then None
      else
        Some
          (Printf.sprintf "%s %s: %s" (print_fixed f) pname
             (first_diff (Rarr (List.find (fun g -> not (arr_bits_equal g want)) got)) (Rarr want))))
    pools

(* The prolongation's read pattern: its 8-read class, in order. *)
let cube =
  [ [ 0; 0; 0 ]; [ 0; 0; 1 ]; [ 0; 1; 0 ]; [ 0; 1; 1 ];
    [ 1; 0; 0 ]; [ 1; 0; 1 ]; [ 1; 1; 0 ]; [ 1; 1; 1 ] ]

let zip_offsets = [ [ 0; 0; 0 ]; [ 0; 0; 1 ]; [ -1; 0; 0 ]; [ 0; 1; -1 ] ]

let degenerate m = [ [| m; m; m |]; [| m; m; 1 |]; [| m; 1; m |]; [| 1; m; m |] ]

(* Every branch and fallback: all 8 class patterns x 0-3 extras x the
   three layouts x line buffers on/off; two-stencil bodies (every
   non-empty pattern of the step-2 stencil x three of the unit-step one,
   in box order for the fused row, and in kernel order with 0-3 extras
   for the tier-ladder fallback); flat with 2-8
   reads and zip with 1-4 clusters on each degenerate box, unit and
   step 2. *)
let fixed_cases =
  let bools = [ false; true ] in
  List.concat_map
    (fun c1 ->
      List.concat_map
        (fun c2 ->
          List.concat_map
            (fun c3 ->
              List.concat_map
                (fun extras ->
                  List.concat_map
                    (fun layout ->
                      List.map
                        (fun line_buffers ->
                          Fstencil
                            { classes = (c1, c2, c3);
                              extras;
                              layout;
                              line_buffers;
                              dims = [| 4; 5; 6 |];
                            })
                        bools)
                    [ Unit; Out2; Extras2 ])
                [ 0; 1; 2; 3 ])
            bools)
        bools)
    bools
  @ List.concat_map
      (fun pa ->
        List.concat_map
          (fun pb ->
            Fstencil2 { patterns = (pa, pb); extras = 0; box_order = true; dims = [| 4; 5; 6 |] }
            :: List.init 4 (fun extras ->
                   Fstencil2 { patterns = (pa, pb); extras; box_order = false; dims = [| 4; 5; 6 |] }))
          [ (true, true, true); (false, true, true); (true, false, false) ])
      [ (true, true, true); (true, true, false); (true, false, true); (false, true, true);
        (true, false, false); (false, true, false); (false, false, true) ]
  @ List.concat_map
      (fun box ->
        List.concat_map
          (fun step2 ->
            List.init 7 (fun i ->
                Fflat { offsets = List.filteri (fun j _ -> j < i + 2) cube; box; step2 })
            @ List.init 4 (fun i ->
                  Fzip { offsets = List.filteri (fun j _ -> j <= i) zip_offsets; box; step2 }))
          [ false; true ])
      (degenerate 5)
  @ Fshell { reads = 1; copy = true; dims = [| 4; 5; 6 |] }
    :: List.init 5 (fun reads -> Fshell { reads; copy = false; dims = [| 4; 5; 6 |] })
  @ [ Fborder { dims = [| 4; 5; 6 |] }; Fborder { dims = [| 3; 3; 3 |] } ]

(* A body without edges goes to the fallback, which skips the absent
   class: adding [0 · edges] instead would turn an infinite edge sum
   into NaN (and a -0.0 sum into +0.0).  These run with one infinite
   source element, in every pattern that spells out the other
   classes. *)
let absent_edge_cases =
  List.concat_map
    (fun (c1, c3) ->
      List.concat_map
        (fun extras ->
          List.map
            (fun line_buffers ->
              Fstencil
                { classes = (c1, false, c3); extras; layout = Unit; line_buffers; dims = [| 4; 5; 6 |] })
            [ false; true ])
        [ 0; 1; 2 ])
    [ (true, true); (false, true); (true, false) ]

let test_fixed_branches_bitwise () =
  let before = Kernel.branch_counts () in
  let failures =
    List.concat_map (run_fixed 3) fixed_cases
    @ List.concat_map (run_fixed ~inf:true 3) absent_edge_cases
  in
  if failures <> [] then
    Alcotest.failf "fixed kernels deviate from the reference interpreter:\n  %s"
      (String.concat "\n  " failures);
  List.iter2
    (fun (name, n0) (_, n1) ->
      Alcotest.(check bool) (Printf.sprintf "branch %s ran" name) true (n1 > n0))
    before (Kernel.branch_counts ())

(* The same property over random bodies: random source values and
   shapes, any class pattern, extra count and layout, flat bodies on 2-8
   of the 27 neighbours and zips of 1-4 clusters at random offsets,
   over random (possibly degenerate) boxes. *)
let gen_fixed =
  QCheck.Gen.(
    let box =
      let* m = 1 -- 6 and* n = 1 -- 6 and* k = 1 -- 6 in
      oneofl [ [| m; n; k |]; [| m; n; 1 |]; [| m; 1; k |]; [| 1; n; k |] ]
    in
    let* seed = 0 -- 10000 in
    let* f =
      frequency
        [ ( 3,
            let* c1 = bool and* c2 = bool and* c3 = bool and* extras = 0 -- 3 in
            let* layout = oneofl [ Unit; Out2; Extras2 ] and* line_buffers = bool in
            (* At least two inner positions: a one-element row has step 0
               and is no box stencil. *)
            let* d0 = 3 -- 7 and* d1 = 3 -- 7 and* d2 = 4 -- 7 in
            let dims = [| d0; d1; d2 |] in
            return (Fstencil { classes = (c1, c2, c3); extras; layout; line_buffers; dims }) );
          ( 1,
            let pattern =
              let* c1 = bool and* c2 = bool and* c3 = bool in
              return (if c1 || c2 || c3 then (c1, c2, c3) else (true, false, false))
            in
            let* pa = pattern and* pb = pattern and* extras = 0 -- 3 and* box_order = bool in
            let* d0 = 3 -- 6 and* d1 = 3 -- 6 and* d2 = 3 -- 6 in
            return (Fstencil2 { patterns = (pa, pb); extras; box_order; dims = [| d0; d1; d2 |] }) );
          ( 2,
            let* n = 2 -- 8 and* offsets = shuffle_l neighbours in
            let* box = box and* step2 = bool in
            return (Fflat { offsets = List.filteri (fun j _ -> j < n) offsets; box; step2 }) );
          ( 1,
            let* n = 1 -- 4 and* offsets = list_repeat 4 (oneofl neighbours) in
            let* box = box and* step2 = bool in
            return (Fzip { offsets = List.filteri (fun j _ -> j < n) offsets; box; step2 }) );
          ( 1,
            let* reads = 0 -- 4 and* copy = bool in
            let* d0 = 3 -- 6 and* d1 = 3 -- 6 and* d2 = 3 -- 6 in
            return (Fshell { reads; copy; dims = [| d0; d1; d2 |] }) );
          ( 1,
            let* d0 = 3 -- 7 and* d1 = 3 -- 7 and* d2 = 3 -- 7 in
            return (Fborder { dims = [| d0; d1; d2 |] }) );
        ]
    in
    return (seed, f))

let qcheck_fixed_matches_reference =
  QCheck.Test.make ~name:"fixed-kernel bodies bitwise match the reference interpreter" ~count:200
    (QCheck.make ~print:(fun (seed, f) -> Printf.sprintf "seed=%d %s" seed (print_fixed f)) gen_fixed)
    (fun (seed, f) ->
      match run_fixed seed f with
      | [] -> true
      | failures -> QCheck.Test.fail_reportf "%s" (String.concat "\n  " failures))

(* ------------------------------------------------------------------ *)
(* Allocation guard: a warm replay of each fixed kernel kind, and of a
   cfun kernel (its row accumulator grows once per domain), allocates
   the same minor words over a 66^3 box as over a 34^3 one — no row
   loop allocates.  The only per-call allocation that grows with the
   box is the line-buffered nest's two row buffers, 2(n+2) floats.  One
   piece on the calling domain: Gc.minor_words counts only its own
   allocation. *)

let kernel_kinds n =
  let dims = [| n; n; n |] in
  let resid line_buffers =
    Fstencil { classes = (false, true, true); extras = 1; layout = Unit; line_buffers; dims }
  in
  let box = [| n - 2; n - 2; n - 2 |] in
  [ ( "copy", "copy", false,
      fun () ->
        Ir.genarray dims
          [ { Ir.gen = Generator.full dims;
              body = Ir.Read (Ir.Arr (src_of_seed dims 5), Ixmap.identity 3);
            }
          ] );
    ("linebuf", "linebuf", true, fun () -> build_fixed 5 (resid true));
    ("stencil", "stencil", false, fun () -> build_fixed 5 (resid false));
    ( "stencil2.lex", "stencil", false,
      fun () ->
        build_fixed 5
          (Fstencil2
             { patterns = ((true, true, true), (false, true, true));
               extras = 0;
               box_order = true;
               dims = [| n / 2; n / 2; n / 2 |];
             }) );
    ("flat", "interp", false, fun () -> build_fixed 5 (Fflat { offsets = cube; box; step2 = false }));
    ( "zip", "interp", false,
      fun () ->
        build_fixed 5
          (Fzip { offsets = List.filteri (fun j _ -> j < 3) zip_offsets; box; step2 = false }) );
    ("shell", "interp", false, fun () -> build_fixed 5 (Fshell { reads = 3; copy = false; dims }));
    ( "cfun", "cfun", false,
      fun () ->
        (* Three reads of one array that make no box stencil, and a
           second array: no fixed kernel takes it. *)
        let a = src_of_seed dims 5 in
        let reads = sum (List.map (read a) [ [ 0; 0; -1 ]; [ 0; 0; 1 ]; [ 0; -1; 0 ] ]) in
        let body = axpy (axpy (Ir.Const 0.375) (coeff 0) reads) (coeff 1) (read (src_of_seed dims 6) [ 0; 0; 0 ]) in
        Ir.genarray dims [ { Ir.gen = Generator.interior dims 1; body } ] );
  ]

let test_fixed_kernels_allocation_free () =
  let path_count name = List.assoc name (Kernel.counters ()) in
  let warm_words n =
    List.map
      (fun (kind, path, line_buffers, build) ->
        let st =
          { (fixed_settings ~line_buffers oracle_pool) with
            par_threshold = max_int;
          }
        in
        ignore (Exec.force st (build ()));
        ignore (Exec.force st (build ()));
        let g = build () in
        let hits = path_count path in
        let w0 = Gc.minor_words () in
        ignore (Exec.force st g);
        let words = Gc.minor_words () -. w0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s ran on the %s path" kind path)
          true
          (path_count path > hits);
        (kind, words))
      (kernel_kinds n)
  in
  List.iter2
    (fun (kind, small) (_, large) ->
      if large -. small > 256.0 then
        Alcotest.failf "%s: a warm force allocates %.0f minor words over 66^3, %.0f over 34^3" kind
          large small)
    (warm_words 34) (warm_words 66)

(* Slabs a pool would split (Plan.default_par_threshold elements or
   more) stay out of shell groups.  A 3x130x130 genarray: its two 130^2
   planes run as parts of their own, its four thin slabs as one group,
   beside the 128^2 interior zip, and the result is the reference's. *)
let test_large_slabs_stay_out_of_groups () =
  let dims = [| 3; 130; 130 |] in
  let box lb ub = Generator.make ~lb ~ub () in
  let build () =
    let src = src_of_seed dims 7 in
    let body = Ir.Mul (Ir.Const 2.0, Ir.Read (Ir.Arr src, Ixmap.identity 3)) in
    Ir.genarray dims
      (List.map
         (fun gen -> { Ir.gen; body })
         [ box [| 0; 0; 0 |] [| 1; 130; 130 |];
           box [| 1; 0; 0 |] [| 2; 1; 130 |];
           box [| 1; 1; 0 |] [| 2; 129; 1 |];
           box [| 1; 1; 1 |] [| 2; 129; 129 |];
           box [| 1; 1; 129 |] [| 2; 129; 130 |];
           box [| 1; 129; 0 |] [| 2; 130; 130 |];
           box [| 2; 0; 0 |] [| 3; 130; 130 |];
         ])
  in
  let st =
    { (fixed_settings ~line_buffers:false oracle_pool) with
      par_threshold = max_int;
    }
  in
  let count name l = List.assoc name l in
  let paths = Kernel.counters () and branches = Kernel.branch_counts () in
  let got = Exec.force st (build ()) in
  Alcotest.(check bool) "bitwise the reference" true
    (arr_bits_equal got (Reference.run (Ir.Node (build ()))));
  Alcotest.(check int) "one group" 1
    (count "shell" (Kernel.branch_counts ()) - count "shell" branches);
  Alcotest.(check int) "two planes, the group and the interior" 4
    (count "interp" (Kernel.counters ()) - count "interp" paths)


(* ------------------------------------------------------------------ *)
(* Ghost-shell loans.  A periodic border whose base has other readers
   borrows the base's buffer (Plan.OLend): the base's shell is saved,
   the border parts write it in place, and the base's readers must
   still see the old shell.  The programs below give the base 1-3 other
   readers, forced in a random order around a consumer of the border:
   plain readers of the whole base, stencil readers, a consumer reading
   the border and the base in one force (either read first), a force
   that holds the base and then a node reading the border (the border
   then lends a base another pending force already holds), the same
   with that node reading the base too, and a border of the border.
   A pointwise reader of the border may be its last consumer, where the
   in-place pass must not take the shared buffer.  The user may also
   force the base first (it escapes before the border lends) or the
   border itself (the borrower escapes).  Every forced value must equal
   the reference interpreter's bitwise, and must not change afterwards,
   under reuse on/off, the generic, cfun and native tiers, block and
   tiled pieces, folding on/off, cold and replayed from the plan cache;
   and every force must be cacheable. *)

type reader =
  | Rident  (* the whole base, shell included *)
  | Rpoint  (* the whole border, pointwise: may write in place of a dying border *)
  | Rstencil  (* offsets over the interior, identity on the shell *)
  | Rboth of bool  (* the border and the base in one force; [true]: base read first *)
  | Rwrap  (* holds the base, then a node reading the border *)
  | Rwrap_both  (* holds the base, then a node reading the border and the base *)
  | Rborder2  (* a border of the border *)

type loan_spec = {
  lext : int;
  readers : reader list;  (* 1-3 other readers of the base *)
  order : int list;  (* forcing order over [consumer :: readers] *)
  base_first : bool;  (* the user forces the base before anything else *)
  border_at : int option;  (* the user forces the border at this step *)
  lseed : int;
}

let reader_name = function
  | Rident -> "ident"
  | Rpoint -> "point"
  | Rstencil -> "stencil"
  | Rboth b -> if b then "both(base first)" else "both(border first)"
  | Rwrap -> "wrap"
  | Rwrap_both -> "wrap-both"
  | Rborder2 -> "border2"

let print_loan s =
  Printf.sprintf "ext=%d readers=[%s] order=[%s] base_first=%b border_at=%s seed=%d" s.lext
    (String.concat ";" (List.map reader_name s.readers))
    (String.concat ";" (List.map string_of_int s.order))
    s.base_first
    (match s.border_at with Some i -> string_of_int i | None -> "-")
    s.lseed

let gen_loan =
  QCheck.Gen.(
    let* lext = 4 -- 6 in
    let* nr = 1 -- 3 in
    let* readers =
      list_repeat nr
        (oneofl [ Rident; Rpoint; Rstencil; Rboth true; Rboth false; Rwrap; Rwrap_both; Rborder2 ])
    in
    let* order = shuffle_l (List.init (nr + 1) Fun.id) in
    let* base_first = frequency [ (4, return false); (1, return true) ] in
    let* border_at = frequency [ (3, return None); (1, map Option.some (0 -- (nr + 1))) ] in
    let* lseed = 0 -- 10000 in
    return { lext; readers; order; base_first; border_at; lseed })

(* A full-shape genarray: the terms over the interior, identity reads
   of [srcs] (coefficient 0.5 each) on the shell slabs. *)
let over_interior shp terms srcs =
  let ident = List.map (fun src -> Ir.Mul (Ir.Const 0.5, Ir.Read (src, Ixmap.identity 3))) srcs in
  Ir.genarray shp
    ({ Ir.gen = Generator.interior shp 1; body = sum terms }
    :: List.map (fun g -> { Ir.gen = g; body = sum ident }) (border_slabs shp 1))

let term src c d = Ir.Mul (Ir.Const c, Ir.Read (src, Ixmap.offset (Array.of_list d)))

(* The program's graph, fresh per call: the base, its border and the
   roots in forcing order. *)
let build_loan s =
  let shp = [| s.lext; s.lext; s.lext |] in
  let src = src_of_seed shp s.lseed in
  let base =
    Ir.Node (Ir.genarray shp [ { Ir.gen = Generator.full shp; body = lin (Ir.Arr src) [ ([ 0; 0; 0 ], 1.5) ] 0.25 } ])
  in
  let border = periodic_border base in
  let stencil src k = [ term src (0.75 +. k) [ 0; 0; 0 ]; term src (0.125 +. k) [ 1; 0; 0 ]; term src (0.375 +. k) [ 0; -1; 1 ] ] in
  let consumer = over_interior shp (stencil border 0.0) [ border ] in
  let reader = function
    | Rident -> Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term base 1.25 [ 0; 0; 0 ] } ]
    | Rpoint -> Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term border 1.75 [ 0; 0; 0 ] } ]
    | Rstencil -> over_interior shp (stencil base 0.5) [ base ]
    | Rboth base_first ->
        let b = stencil base 1.0 and r = stencil border 1.5 in
        over_interior shp (if base_first then b @ r else r @ b) (if base_first then [ base; border ] else [ border; base ])
    | Rwrap ->
        let y = Ir.Node (over_interior shp (stencil border 2.0) [ border ]) in
        Ir.genarray shp
          [ { Ir.gen = Generator.full shp; body = Ir.Add (term base 1.125 [ 0; 0; 0 ], term y 0.625 [ 0; 0; 0 ]) } ]
    | Rwrap_both ->
        let y = Ir.Node (over_interior shp (stencil border 2.5 @ stencil base 3.0) [ border; base ]) in
        Ir.genarray shp
          [ { Ir.gen = Generator.full shp; body = Ir.Add (term base 1.375 [ 0; 0; 0 ], term y 0.875 [ 0; 0; 0 ]) } ]
    | Rborder2 ->
        let b2 = periodic_border border in
        over_interior shp (stencil b2 3.5) [ b2 ]
  in
  let roots = Array.of_list (consumer :: List.map reader s.readers) in
  let ordered = List.map (fun i -> Ir.Node roots.(i)) s.order in
  let ordered =
    match s.border_at with
    | Some i ->
        List.filteri (fun j _ -> j < i) ordered @ (border :: List.filteri (fun j _ -> j >= i) ordered)
    | None -> ordered
  in
  if s.base_first then base :: ordered else ordered

(* Force the roots in order as user code does ([Wl.force]: the value
   escapes), keeping a copy of each value as forced. *)
let force_roots st roots =
  List.map
    (fun r ->
      match r with
      | Ir.Arr a -> (a, Ndarray.copy a)
      | Ir.Node n ->
          Ir.mark_escaped n;
          let a = Exec.force st n in
          (a, Ndarray.copy a))
    roots

let loan_lent = Mg_obs.Metrics.counter "border.lent"

let loan_copied reason = Mg_obs.Metrics.counter ~labels:[ ("reason", reason) ] "border.copied"

let loan_reasons = [ "escaped"; "pinned"; "lent"; "base_held" ]
let loan_fired = Hashtbl.create 8

let tiers = [ ("generic", false, None); ("cfun", true, None); ("native", true, Some native_dir) ]

let run_loan s =
  with_mempool_debug (fun () ->
      let want = List.map (fun r -> Reference.run r) (build_loan s) in
      let failures = ref [] in
      let counts () =
        Mg_obs.Metrics.value loan_lent :: List.map (fun r -> Mg_obs.Metrics.value (loan_copied r)) loan_reasons
      in
      let c0 = counts () in
      let uncacheable = Mg_obs.Metrics.counter "plan_cache.uncacheable" in
      let u0 = Mg_obs.Metrics.value uncacheable in
      List.iter
        (fun (tier, cfun, native) ->
          List.iter
            (fun reuse ->
              List.iter
                (fun (pname, pool) ->
                  List.iter
                    (fun fold ->
                      let st = exec_settings ~native ~fold ~reuse ~cfun pool in
                      (* Cold, then replayed from the plan cache. *)
                      List.iter
                        (fun leg ->
                          let got = force_roots st (build_loan s) in
                          List.iteri
                            (fun i ((a, first), w) ->
                              let name =
                                Printf.sprintf "%s reuse=%b %s fold=%b %s root %d" tier reuse pname
                                  fold leg i
                              in
                              if not (arr_bits_equal first w) then
                                failures := (name ^ ": " ^ first_diff (Rarr first) (Rarr w)) :: !failures
                              else if not (arr_bits_equal a first) then
                                failures := (name ^ ": changed after it was forced") :: !failures)
                            (List.combine got want))
                        [ "cold"; "replay" ])
                    [ false; true ])
                pools)
            [ false; true ])
        tiers;
      List.iteri
        (fun i (a, b) -> if b > a then Hashtbl.replace loan_fired i ())
        (List.combine c0 (counts ()));
      (* Forces reading a borrower and its lent base stay cacheable:
         keys bind the two by node, not by their shared buffer. *)
      if Mg_obs.Metrics.value uncacheable > u0 then failures := "a force was uncacheable" :: !failures;
      if !failures <> [] then
        QCheck.Test.fail_reportf "loan programs deviate from the reference interpreter:\n  %s"
          (String.concat "\n  " (List.rev !failures))
      else true)

let qcheck_loans_match_reference =
  QCheck.Test.make ~name:"ghost-shell loans bitwise match the reference interpreter" ~count:60
    (QCheck.make ~print:print_loan gen_loan) run_loan

(* Every loan event the counters name happens: a lend, and a copy for
   each reason.  Fixed programs guarantee each one (besides what the
   random ones fired): the base forced first escapes; a border of the
   border finds its base already lent; a reader of the base while the
   border waits for another reader moves the border; a node reading
   the border and then the base, alone or under a force that held the
   base first, reads a private copy. *)
let test_loans_exercised () =
  let spec readers order ?(base_first = false) () =
    { lext = 5; readers; order; base_first; border_at = None; lseed = 7 }
  in
  List.iter
    (fun s -> ignore (run_loan s))
    [ spec [ Rident ] [ 0; 1 ] ();
      spec [ Rident ] [ 0; 1 ] ~base_first:true ();
      spec [ Rident; Rborder2 ] [ 2; 1; 0 ] ();
      spec [ Rpoint; Rident ] [ 0; 2; 1 ] ();
      spec [ Rboth false ] [ 0; 1 ] ();
      spec [ Rwrap_both ] [ 1; 0 ] ();
    ];
  List.iteri
    (fun i name ->
      Alcotest.(check bool) (Printf.sprintf "loan programs fired %s" name) true (Hashtbl.mem loan_fired i))
    ("lent" :: List.map (fun r -> "copied{reason=" ^ r ^ "}") loan_reasons)

(* The debug tripwire: an interior written while lent fails the
   restore's checksum. *)
let test_loan_tripwire () =
  with_mempool_debug (fun () ->
      let shp = [| 5; 5; 5 |] in
      let base = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = lin (Ir.Arr (src_of_seed shp 1)) [ ([ 0; 0; 0 ], 1.5) ] 0.0 } ] in
      let border = periodic_border (Ir.Node base) in
      let reader = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term (Ir.Node base) 2.0 [ 0; 0; 0 ] } ] in
      let st = exec_settings ~reuse:false ~cfun:true oracle_pool in
      let b = Exec.force st base in
      (match border with
      | Ir.Node n ->
          ignore (Exec.force st n);
          Alcotest.(check bool) "the border borrowed the base's buffer" true (n.Ir.cache = Some b)
      | Ir.Arr _ -> assert false);
      Ndarray.set b [| 2; 2; 2 |] 7.0;
      Alcotest.check_raises "a changed interior fails the restore"
        (Failure "Exec: a lent base's interior changed during its loan") (fun () ->
          ignore (Exec.force st reader)))

(* While a loan is live, the shared buffer is neither reused in place
   nor stolen: a pointwise last reader of the border, and a border of
   the border that is its only reader, each get a buffer of their own
   (the steal is counted as a [lent] copy), and the base's later reader
   still sees its old shell. *)
let test_loan_exclusive () =
  with_mempool_debug (fun () ->
      let shp = [| 5; 6; 7 |] in
      let program () =
        let src = src_of_seed shp 11 in
        let base =
          Ir.Node
            (Ir.genarray shp
               [ { Ir.gen = Generator.full shp; body = lin (Ir.Arr src) [ ([ 0; 0; 0 ], 1.5) ] 0.25 } ])
        in
        let border = periodic_border base in
        let point = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term border 1.75 [ 0; 0; 0 ] } ] in
        let consumer b = over_interior shp [ term b 0.75 [ 0; 0; 0 ]; term b 0.125 [ 1; 0; -1 ] ] [ b ] in
        let reader = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term base 1.25 [ 0; 0; 0 ] } ] in
        (* The pointwise reader is the border's last consumer. *)
        let reused = [ Ir.Node (consumer border); Ir.Node point; Ir.Node reader ] in
        (* Only the second border reads the first. *)
        let base2 =
          Ir.Node
            (Ir.genarray shp
               [ { Ir.gen = Generator.full shp; body = lin (Ir.Arr src) [ ([ 0; 0; 0 ], 2.5) ] 0.5 } ])
        in
        let reader2 = Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term base2 1.25 [ 0; 0; 0 ] } ] in
        let stolen = [ Ir.Node (consumer (periodic_border (periodic_border base2))); Ir.Node reader2 ] in
        reused @ stolen
      in
      let want = List.map Reference.run (program ()) in
      let st = exec_settings ~reuse:true ~cfun:true oracle_pool in
      let lent0 = Mg_obs.Metrics.value (loan_copied "lent") in
      List.iter
        (fun leg ->
          List.iteri
            (fun i ((_, got), w) ->
              if not (arr_bits_equal got w) then
                Alcotest.failf "%s root %d: %s" leg i (first_diff (Rarr got) (Rarr w)))
            (List.combine (force_roots st (program ())) want))
        [ "cold"; "replay" ];
      Alcotest.(check int) "the steal fell back to a copy, cold and replayed" 2
        (Mg_obs.Metrics.value (loan_copied "lent") - lent0))

(* A class-S solve lends every border whose base has other readers:
   no interior copies are left, nothing falls back to a copy, and all
   of it is counted on the solving engine's shards.  Its ghost-shell
   slabs run as groups: far fewer [interp] pieces than the 2046 the
   solve dispatched with one piece per slab. *)
let test_mg_borders_lent () =
  let e = Engine.create () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      let shard name labels = Mg_obs.Metrics.value (Mg_obs.Metrics.counter ~labels:(("engine", string_of_int (Engine.label e)) :: labels) name) in
      let path name = List.assoc name (Kernel.counters ()) in
      let groups = Mg_obs.Metrics.counter "kernel.branch.shell" in
      let k0 = path "copy" and i0 = path "interp" and g0 = Mg_obs.Metrics.value groups in
      let r = Mg_core.Driver.run ~engine:e ~impl:Mg_core.Driver.Sac ~cls:Mg_core.Classes.class_s () in
      Alcotest.(check bool) "verified" true (Mg_core.Verify.status_ok r.Mg_core.Driver.status);
      Alcotest.(check int) "no interior copies" 0 (path "copy" - k0);
      Alcotest.(check bool) "shell groups compiled" true (Mg_obs.Metrics.value groups > g0);
      Alcotest.(check bool)
        (Printf.sprintf "%d interp pieces (2046 with one per slab)" (path "interp" - i0))
        true
        (path "interp" - i0 < 1000);
      Alcotest.(check bool) "borders lent, on the engine's shard" true (shard "border.lent" [] > 0);
      List.iter
        (fun reason ->
          Alcotest.(check int) ("no copy: " ^ reason) 0 (shard "border.copied" [ ("reason", reason) ]))
        loan_reasons)

(* ------------------------------------------------------------------ *)
(* Ghost-shell groups.  The one-thick boundary slabs of a force whose
   kernels are zips, copies or constants run as one group kernel, at
   the place of the first of them.  The programs below give each slab
   a body of 0-3 single reads — of the base (a producer node), of two
   leaf arrays or of the base's periodic border, at the slab's wrap
   offset, at identity or at an in-bounds offset — and list the parts
   (an interior part included) in a random order, so members and
   non-members interleave.  Sometimes a body reads one array twice,
   which makes it no zip and so no member.  Five kinds of force hold
   them: a consumer covering the whole grid (a fresh or in-place
   output), a modarray of the base (its complement slabs are copies), and
   a periodic-style border of the base over the 26 regions that is
   lent (the base has another reader), stolen (it has none) or copied
   (the user forced the base first).  A border reads the base at the
   wrap offset or at identity: a barrier modarray's parts read the base
   outside what they write, or at the element they write.  Every
   forced value must equal the
   reference interpreter's bitwise, and must not change afterwards,
   under reuse on/off, the generic, cfun and native tiers, cold and
   replayed from the plan cache. *)

type gsrc = Gbase | Gleaf of int | Gborder
type gmap = Mwrap | Mident | Moff of int array
type gforce = Fconsumer | Fmod | Flent | Fstolen | Fcopied

type gspec = {
  gext : int array;
  gforce : gforce;
  g26 : bool;  (* the 26 border regions, else the 6 box-border slabs *)
  gbodies : ((gsrc * gmap) list * float) list;  (* per slab: reads and const *)
  gkeys : int list;  (* sort keys of the parts: their order *)
  gseed : int;
}

let gforce_name = function
  | Fconsumer -> "consumer"
  | Fmod -> "modarray"
  | Flent -> "border-lent"
  | Fstolen -> "border-stolen"
  | Fcopied -> "border-copied"

let print_gspec s =
  let src = function Gbase -> "base" | Gleaf i -> Printf.sprintf "leaf%d" i | Gborder -> "border" in
  let map = function
    | Mwrap -> "wrap"
    | Mident -> "ident"
    | Moff d -> Printf.sprintf "off(%d,%d,%d)" d.(0) d.(1) d.(2)
  in
  Printf.sprintf "%s ext=%s %s seed=%d keys=[%s] bodies=[%s]" (gforce_name s.gforce)
    (Shape.to_string s.gext) (if s.g26 then "26" else "6") s.gseed
    (String.concat ";" (List.map string_of_int s.gkeys))
    (String.concat "; "
       (List.map
          (fun (reads, k) ->
            Printf.sprintf "%g%s" k
              (String.concat "" (List.map (fun (r, m) -> Printf.sprintf "+%s@%s" (src r) (map m)) reads)))
          s.gbodies))

let gen_gspec =
  QCheck.Gen.(
    let* e0 = 3 -- 6 and* e1 = 3 -- 6 and* e2 = 3 -- 6 in
    let* gforce = oneofl [ Fconsumer; Fmod; Flent; Fstolen; Fcopied ] in
    let* g26 = bool and* mixed = frequency [ (3, return false); (1, return true) ] in
    let map = oneof [ return Mwrap; return Mident; map (fun d -> Moff (Array.of_list d)) (list_repeat 3 (-1 -- 1)) ] in
    let read = pair (oneofl [ Gbase; Gleaf 0; Gleaf 1; Gborder ]) map in
    let* gbodies = list_repeat 26 (pair (list_size (0 -- 3) read) (float_range 0.125 1.0)) in
    let* gkeys = list_repeat 27 (0 -- 1000) and* gseed = 0 -- 10000 in
    let border = match gforce with Flent | Fstolen | Fcopied -> true | Fconsumer | Fmod -> false in
    (* A border reads its base at identity or outside the shell it
       writes (the barrier contract), and cannot read itself. *)
    let legal (r, m) =
      match (r, m) with
      | Gborder, _ when border -> (Gleaf 1, m)
      | Gbase, Moff _ when border -> (Gbase, Mwrap)
      | _ -> (r, m)
    in
    (* Reads of one array stay adjacent: the kernels sum a cluster's
       reads together, so the tree must too. *)
    let adjacent reads =
      List.concat_map (fun r -> List.filter (fun (r', _) -> r' = r) reads) (List.sort_uniq compare (List.map fst reads))
    in
    let distinct reads =
      List.fold_left (fun acc (r, m) -> if List.mem_assoc r acc then acc else acc @ [ (r, m) ]) [] reads
    in
    let body (reads, k) =
      let reads = List.map legal reads in
      ((if mixed then adjacent reads else distinct reads), k)
    in
    return
      { gext = [| e0; e1; e2 |];
        gforce;
        g26 = g26 || border;
        gbodies = List.map body gbodies;
        gkeys;
        gseed;
      })

let build_gspec s =
  let shp = s.gext in
  let leaves = Array.init 2 (fun i -> Ir.Arr (src_of_seed shp (s.gseed + i))) in
  let base =
    Ir.Node
      (Ir.genarray shp
         [ { Ir.gen = Generator.full shp; body = lin leaves.(0) [ ([ 0; 0; 0 ], 1.5) ] 0.25 } ])
  in
  let border = lazy (periodic_border base) in
  let slab (g : Generator.t) (reads, k) =
    let map = function
      | Mwrap -> Ixmap.offset (wrap_of shp g)
      | Mident -> Ixmap.identity 3
      | Moff d ->
          Ixmap.offset
            (Array.mapi
               (fun j d ->
                 if g.Generator.lb.(j) + d < 0 || g.Generator.ub.(j) - 1 + d >= shp.(j) then 0 else d)
               d)
    in
    let src = function Gbase -> base | Gleaf i -> leaves.(i) | Gborder -> Lazy.force border in
    let body =
      List.fold_left
        (fun acc (i, (r, m)) -> axpy acc [| 0.625; -1.375; 0.8125 |].(i) (Ir.Read (src r, map m)))
        (Ir.Const k)
        (List.mapi (fun i rm -> (i, rm)) reads)
    in
    { Ir.gen = g; body }
  in
  let gens = if s.g26 then regions shp else border_slabs shp 1 in
  let slabs = List.map2 slab gens (List.filteri (fun i _ -> i < List.length gens) s.gbodies) in
  let interior =
    { Ir.gen = Generator.interior shp 1;
      body = sum [ term base 0.75 [ 0; 0; 0 ]; term base 0.125 [ 1; 0; 0 ]; term base 0.375 [ 0; -1; 1 ] ];
    }
  in
  let ordered parts =
    List.map snd
      (List.stable_sort (fun (a, _) (b, _) -> compare a b)
         (List.combine (List.filteri (fun i _ -> i < List.length parts) s.gkeys) parts))
  in
  let reader = Ir.Node (Ir.genarray shp [ { Ir.gen = Generator.full shp; body = term base 1.25 [ 0; 0; 0 ] } ]) in
  let consumer_of b = Ir.Node (over_interior shp [ term b 0.75 [ 0; 0; 0 ]; term b 0.125 [ 1; 0; -1 ] ] [ b ]) in
  let border_node () = Ir.Node (Ir.modarray ~barrier:true base (ordered slabs)) in
  match s.gforce with
  | Fconsumer -> [ Ir.Node (Ir.genarray shp (ordered (interior :: slabs))); reader ]
  | Fmod -> [ Ir.Node (Ir.modarray base (ordered (interior :: slabs))) ]
  | Flent -> [ consumer_of (border_node ()); reader ]
  | Fstolen -> [ consumer_of (border_node ()) ]
  | Fcopied -> [ base; consumer_of (border_node ()) ]

let c_shell = Mg_obs.Metrics.counter "kernel.branch.shell"
let shell_fired = Hashtbl.create 8

let run_gspec s =
  with_mempool_debug (fun () ->
      let want = List.map Reference.run (build_gspec s) in
      let failures = ref [] in
      let g0 = Mg_obs.Metrics.value c_shell in
      List.iter
        (fun (tier, cfun, native) ->
          List.iter
            (fun reuse ->
              let st = exec_settings ~native ~reuse ~cfun oracle_pool in
              List.iter
                (fun leg ->
                  List.iteri
                    (fun i ((a, first), w) ->
                      let name = Printf.sprintf "%s reuse=%b %s root %d" tier reuse leg i in
                      if not (arr_bits_equal first w) then
                        failures := (name ^ ": " ^ first_diff (Rarr first) (Rarr w)) :: !failures
                      else if not (arr_bits_equal a first) then
                        failures := (name ^ ": changed after it was forced") :: !failures)
                    (List.combine (force_roots st (build_gspec s)) want))
                [ "cold"; "replay" ])
            [ false; true ])
        tiers;
      if Mg_obs.Metrics.value c_shell > g0 then Hashtbl.replace shell_fired s.gforce ();
      if !failures <> [] then
        QCheck.Test.fail_reportf "shell-slab programs deviate from the reference interpreter:\n  %s"
          (String.concat "\n  " (List.rev !failures))
      else true)

let qcheck_shell_groups_match_reference =
  QCheck.Test.make ~name:"ghost-shell groups bitwise match the reference interpreter" ~count:100
    (QCheck.make ~print:print_gspec gen_gspec) run_gspec

(* A stolen or lent base read at identity and at the wrap offset
   through one cluster ([base@wrap+base@ident]), on every tier: a
   kernel that stored an element before its last read of the base would
   read the border's own value there. *)
let identity_border_spec gforce =
  { gext = [| 6; 3; 6 |];
    gforce;
    g26 = true;
    gbodies =
      [ ([], 0.539415);
        ([ (Gbase, Mident); (Gleaf 1, Mwrap) ], 0.375673);
        ([ (Gbase, Mwrap); (Gleaf 1, Mident); (Gleaf 1, Mident) ], 0.641595);
        ([ (Gleaf 0, Mwrap); (Gleaf 0, Mident); (Gleaf 0, Mwrap) ], 0.52385);
        ([ (Gleaf 1, Mident) ], 0.177509);
        ([ (Gbase, Mwrap) ], 0.713111);
        ([], 0.746298);
        ([ (Gleaf 1, Moff [| 1; 1; 1 |]) ], 0.786838);
        ([ (Gbase, Mwrap); (Gleaf 1, Mident) ], 0.968553);
        ([ (Gbase, Mwrap); (Gleaf 1, Moff [| 0; 1; 1 |]); (Gleaf 1, Mwrap) ], 0.397251);
        ([], 0.901621);
        ([ (Gleaf 1, Mident) ], 0.165891);
        ([ (Gleaf 0, Mident) ], 0.638902);
        ([], 0.804373);
        ([ (Gbase, Mwrap); (Gleaf 0, Moff [| -1; 0; 1 |]); (Gleaf 1, Moff [| 1; -1; 0 |]) ], 0.244747);
        ([], 0.277372);
        ([], 0.584833);
        ([ (Gbase, Mwrap); (Gleaf 1, Moff [| 1; -1; -1 |]) ], 0.738012);
        ([ (Gleaf 0, Mwrap) ], 0.20026);
        ([ (Gleaf 1, Mident); (Gleaf 1, Mident) ], 0.628164);
        ([], 0.66375);
        ([ (Gbase, Mwrap); (Gbase, Mident); (Gleaf 1, Moff [| 1; 1; 0 |]) ], 0.518823);
        ([ (Gleaf 0, Moff [| 1; -1; 0 |]); (Gleaf 1, Mident) ], 0.803542);
        ([], 0.334888);
        ([], 0.443921);
        ([ (Gbase, Mwrap) ], 0.811951);
      ];
    gkeys =
      [ 611; 304; 358; 262; 199; 408; 97; 778; 484; 189; 765; 497; 923; 853; 133; 321; 517; 368; 84;
        225; 587; 804; 96; 116; 686; 167; 866 ];
    gseed = 8810;
  }

let test_identity_read_borders () =
  List.iter (fun f -> ignore (run_gspec (identity_border_spec f))) [ Fstolen; Flent ]

let test_shell_groups_exercised () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "qcheck samples formed a shell group in a %s force" (gforce_name k))
        true (Hashtbl.mem shell_fired k))
    [ Fconsumer; Fmod; Flent; Fstolen; Fcopied ]

(* The loan's shell save/restore: [save_shell] packs exactly the
   elements with a coordinate at 0 or extent-1, in flat order, and
   [restore_shell] writes them back and nothing else — over ranks 1-4,
   extents 1-5. *)
let qcheck_shell_round_trip =
  QCheck.Test.make ~name:"Lower.save_shell/restore_shell round-trip the ghost shell" ~count:300
    QCheck.(make ~print:Shape.to_string Gen.(list_size (1 -- 4) (1 -- 5) >|= Array.of_list))
    (fun shp ->
      let n = Shape.num_elements shp in
      let a = Ndarray.init shp (fun iv -> float_of_int (Shape.ravel ~shape:shp iv) +. 0.5) in
      let orig = Ndarray.copy a in
      let on_shell i =
        let iv = Shape.unravel ~shape:shp i in
        Array.exists (fun x -> x) (Array.mapi (fun j c -> c = 0 || c = shp.(j) - 1) iv)
      in
      let shell = List.filter on_shell (List.init n Fun.id) in
      let side = Ndarray.create [| Lower.shell_size shp |] in
      Lower.save_shell a side;
      let packed = List.init (Ndarray.size side) (Ndarray.get_flat side) in
      let expected = List.map (fun i -> Ndarray.get_flat orig i) shell in
      List.iter (fun i -> Ndarray.set_flat a i (-1.0)) shell;
      Lower.restore_shell a side;
      List.length shell = Lower.shell_size shp && packed = expected && Ndarray.equal a orig)

(* ------------------------------------------------------------------ *)
(* The periodic border walk.  From O2, a stolen or lent periodic border
   runs as one walk over its output ([Kernel.border]) instead of its 26
   parts.  On random non-cubic shapes, a border that steals its base, a
   border that borrows it, and a border whose escaped base it copies
   into a fresh buffer must each equal the 26-part border (folding off:
   no walk) and the reference interpreter bitwise, cold and replayed
   from the plan cache, on 1 and 2 domains, under the debug poison; and
   the walk must have run. *)

type walk_mode = Wsteal | Wlend | Wfresh

let walk_mode_name = function Wsteal -> "steal" | Wlend -> "lend" | Wfresh -> "fresh"

(* A base that is no selection: a second reader makes it lend rather
   than fold. *)
let walk_base dims seed =
  let body = axpy (Ir.Const 0.25) 1.5 (read (src_of_seed dims seed) [ 0; 0; 0 ]) in
  Ir.Node (Ir.genarray dims [ { Ir.gen = Generator.full dims; body } ])

(* The roots in forcing order: the border of a base, with a second
   reader of the base forced after the border ([Wlend]), or the base
   forced first ([Wfresh]: it escapes, and the border copies it). *)
let build_walk mode dims seed =
  let base = walk_base dims seed in
  let border = periodic_border base in
  match mode with
  | Wsteal -> [ border ]
  | Wlend ->
      let body = Ir.Mul (Ir.Const 2.0, Ir.Read (base, Ixmap.identity 3)) in
      [ border; Ir.Node (Ir.genarray dims [ { Ir.gen = Generator.full dims; body } ]) ]
  | Wfresh -> [ base; border ]

let walk_pools = [ ("1 domain", lazy (Mg_smp.Domain_pool.create 1)); List.nth pools 1 ]
let path_count name = List.assoc name (Kernel.counters ())

let run_walk (mode, dims, seed) =
  with_mempool_debug (fun () ->
      let want = List.map Reference.run (build_walk mode dims seed) in
      let lent0 = Mg_obs.Metrics.value loan_lent
      and copied0 = Mg_obs.Metrics.value (loan_copied "escaped") in
      let failures = ref [] in
      List.iter
        (fun (pname, pool) ->
          List.iter
            (fun fold ->
              let st = exec_settings ~fold ~reuse:true ~cfun:true pool in
              List.iter
                (fun leg ->
                  let w0 = path_count "border" in
                  let got = force_roots st (build_walk mode dims seed) in
                  let walked = path_count "border" > w0 in
                  let name = Printf.sprintf "%s fold=%b %s" pname fold leg in
                  if walked <> fold then
                    failures := Printf.sprintf "%s: walk ran %b" name walked :: !failures;
                  List.iteri
                    (fun i ((_, first), w) ->
                      if not (arr_bits_equal first w) then
                        failures :=
                          Printf.sprintf "%s root %d: %s" name i (first_diff (Rarr first) (Rarr w))
                          :: !failures)
                    (List.combine got want))
                [ "cold"; "replayed" ])
            [ true; false ])
        walk_pools;
      (match mode with
      | Wsteal -> ()
      | Wlend ->
          if Mg_obs.Metrics.value loan_lent = lent0 then failures := "no border lent" :: !failures
      | Wfresh ->
          if Mg_obs.Metrics.value (loan_copied "escaped") = copied0 then
            failures := "no escaped base copied" :: !failures);
      !failures)

let gen_walk =
  QCheck.Gen.(
    let* d0 = 3 -- 17 and* d1 = 3 -- 17 and* d2 = 3 -- 17 in
    let d2 = if d0 = d1 && d1 = d2 then if d2 = 17 then 16 else d2 + 1 else d2 in
    let* mode = oneofl [ Wsteal; Wlend; Wfresh ] and* seed = 0 -- 10000 in
    return (mode, [| d0; d1; d2 |], seed))

let qcheck_walk_matches_parts =
  QCheck.Test.make ~name:"the border walk bitwise matches the 26-part border" ~count:60
    (QCheck.make
       ~print:(fun (mode, dims, seed) ->
         Printf.sprintf "%s dims=%s seed=%d" (walk_mode_name mode) (Shape.to_string dims) seed)
       gen_walk)
    (fun c ->
      match run_walk c with
      | [] -> true
      | failures -> QCheck.Test.fail_reportf "%s" (String.concat "\n  " failures))

(* Near misses keep the 26 parts: a border missing a region, one
   reading a region off its wrap offset, a border that is no barrier,
   and a rank-2 border.  Each still equals the reference. *)
let test_walk_near_misses () =
  let dims = [| 5; 6; 7 |] in
  let base () = walk_base dims 11 in
  let parts src shp gens =
    List.map (fun g -> { Ir.gen = g; body = Ir.Read (src, Ixmap.offset (wrap_of shp g)) }) gens
  in
  (* The first region reads one plane short of its wrap. *)
  let off_wrap src =
    List.mapi
      (fun i (p : Ir.part) ->
        if i > 0 then p
        else
          let off = Array.map (fun d -> if d > 0 then d - 1 else d) (wrap_of dims p.Ir.gen) in
          { p with Ir.body = Ir.Read (src, Ixmap.offset off) })
      (parts src dims (regions dims))
  in
  let plane = [| 5; 6 |] in
  let regions2 =
    let box j x =
      if x < 0 then (0, 1) else if x = 0 then (1, plane.(j) - 1) else (plane.(j) - 1, plane.(j))
    in
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a = 0 && b = 0 then None
            else
              let (l0, u0), (l1, u1) = (box 0 a, box 1 b) in
              Some (Generator.make ~lb:[| l0; l1 |] ~ub:[| u0; u1 |] ()))
          [ -1; 0; 1 ])
      [ -1; 0; 1 ]
  in
  let cases =
    [ ( "a missing region",
        fun () ->
          let b = base () in
          (b, dims, List.tl (parts b dims (regions dims)), true) );
      ( "an off-wrap offset",
        fun () ->
          let b = base () in
          (b, dims, off_wrap b, true) );
      ( "no barrier",
        fun () ->
          let b = base () in
          (b, dims, parts b dims (regions dims), false) );
      ( "rank 2",
        fun () ->
          let body = Ir.Add (Ir.Const 0.5, Ir.Read (Ir.Arr (src_of_seed plane 3), Ixmap.identity 2)) in
          let b = Ir.Node (Ir.genarray plane [ { Ir.gen = Generator.full plane; body } ]) in
          (b, plane, parts b plane regions2, true) );
    ]
  in
  with_mempool_debug (fun () ->
      List.iter
        (fun (what, build) ->
          let node () =
            let b, _, ps, barrier = build () in
            Ir.modarray ~barrier b ps
          in
          let b, shp, ps, barrier = build () in
          (* The parts of the non-barrier node are the border's own. *)
          Alcotest.(check bool) (what ^ ": parts of a periodic border") (not barrier)
            (Plan.periodic_border shp b ps);
          let st = exec_settings ~fold:true ~reuse:true ~cfun:true oracle_pool in
          let w0 = path_count "border" in
          let got = Exec.force st (node ()) in
          Alcotest.(check int) (what ^ ": no walk") 0 (path_count "border" - w0);
          Alcotest.(check bool) (what ^ ": bitwise the reference") true
            (arr_bits_equal got (Reference.run (Ir.Node (node ())))))
        cases;
      let b = base () in
      Alcotest.(check bool) "the border itself is one" true
        (Plan.periodic_border dims b (parts b dims (regions dims))))

let suite =
  ( "reference_oracle",
    [ QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
      Alcotest.test_case "in-place pass exercised by qcheck" `Quick test_reuse_exercised;
      Alcotest.test_case "reuse aliases a dead pointwise operand" `Quick
        test_reuse_aliases_dead_operand;
      Alcotest.test_case "reuse aliases an operand a later cfun cluster reads" `Quick
        test_reuse_cfun_later_cluster;
      Alcotest.test_case "reuse off allocates" `Quick test_reuse_off_allocates;
      Alcotest.test_case "hazardous stencil operand never aliased" `Quick
        test_hazard_never_aliased;
      Alcotest.test_case "reuse through one-thick parts at identity" `Quick
        test_reuse_through_one_thick_parts;
      Alcotest.test_case "escaped operand never aliased" `Quick test_escaped_operand_not_aliased;
      Alcotest.test_case "debug: double recycle fails" `Quick test_debug_double_recycle;
      Alcotest.test_case "debug: pooled-buffer aliasing fails" `Quick test_assert_unpooled;
      QCheck_alcotest.to_alcotest qcheck_native_matches_reference;
      Alcotest.test_case "native tier exercised by qcheck" `Quick test_native_exercised;
      Alcotest.test_case "native disk cache survives a restart" `Quick
        test_native_disk_cache_restart;
      Alcotest.test_case "poisoned compiler degrades to cfun" `Quick test_native_cc_poisoned;
      Alcotest.test_case "driver tiers bitwise-identical on class tiny" `Quick
        test_driver_tiers_bitwise;
      Alcotest.test_case "every fixed-kernel branch bitwise matches the reference" `Quick
        test_fixed_branches_bitwise;
      QCheck_alcotest.to_alcotest qcheck_fixed_matches_reference;
      Alcotest.test_case "fixed kernels allocate nothing per row" `Quick
        test_fixed_kernels_allocation_free;
      Alcotest.test_case "slabs a pool splits stay out of shell groups" `Quick
        test_large_slabs_stay_out_of_groups;
      QCheck_alcotest.to_alcotest qcheck_loans_match_reference;
      Alcotest.test_case "every ghost-shell loan path exercised" `Quick test_loans_exercised;
      Alcotest.test_case "a lent buffer is never reused or stolen" `Quick test_loan_exclusive;
      Alcotest.test_case "debug: a changed lent interior fails the restore" `Quick
        test_loan_tripwire;
      Alcotest.test_case "MG borders lend instead of copying" `Quick test_mg_borders_lent;
      QCheck_alcotest.to_alcotest qcheck_shell_groups_match_reference;
      Alcotest.test_case "shell groups exercised by qcheck" `Quick test_shell_groups_exercised;
      Alcotest.test_case "stolen and lent bases read at identity" `Quick
        test_identity_read_borders;
      QCheck_alcotest.to_alcotest qcheck_shell_round_trip;
      QCheck_alcotest.to_alcotest qcheck_walk_matches_parts;
      Alcotest.test_case "border near misses keep their parts" `Quick test_walk_near_misses;
    ] )
