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
   - [par_threshold = 1]: every part takes the parallel split, so the
     scheduling policies actually shape pieces — a piece boundary must
     never change any element's arithmetic.

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

let exec_settings ?(native = None) ~reuse ~cfun sched : Exec.settings =
  { Exec.fusion = { Fusion.fold = false; split_strided = false; split_threshold = 2048 };
    factor = false;
    line_buffers = false;
    cfun;
    native;
    reuse;
    pooling = (Engine.config (Engine.current ())).Engine.pooling;
    observe = true;
    cache = Plan_cache.create ();
    pool = Mg_smp.Domain_pool.get_global;
    par_threshold = 1;
    sched;
    backend = Backend.default;
  }

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

let scheds =
  [ ("block", Mg_smp.Sched_policy.Static_block);
    ("chunked", Mg_smp.Sched_policy.Dynamic_chunked 3);
    ("tiled", Mg_smp.Sched_policy.Tiled { planes = 2; rows = 8 });
  ]

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
                (fun (sname, sched) ->
                  check
                    (Printf.sprintf "reuse=%b cfun=%b sched=%s" reuse cfun sname)
                    (exec_settings ~reuse ~cfun sched))
                scheds)
            [ false; true ])
        [ false; true ];
      (* One more leg on the default-style configuration: the second
         structurally identical force replays from the plan cache, so
         the OReuse replay arm is held to the reference too. *)
      check "replay reuse=true cfun=true sched=block"
        (exec_settings ~reuse:true ~cfun:true (snd (List.hd scheds)));
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
      let st = exec_settings ~reuse:true ~cfun:true Mg_smp.Sched_policy.Static_block in
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

(* With reuse off the same program must allocate. *)
let test_reuse_off_allocates () =
  let st = exec_settings ~reuse:false ~cfun:true Mg_smp.Sched_policy.Static_block in
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
          let st = exec_settings ~reuse:true ~cfun Mg_smp.Sched_policy.Static_block in
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

(* An operand that escaped through Wl.force belongs to user code and
   must never be overwritten, dead refcount or not. *)
let test_escaped_operand_not_aliased () =
  let st = exec_settings ~reuse:true ~cfun:true Mg_smp.Sched_policy.Static_block in
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
            (fun (sname, sched) ->
              let st = exec_settings ~native:(Some native_dir) ~reuse ~cfun:true sched in
              let got = run_engine st (build s) in
              if not (result_bits_equal got reference) then
                failures :=
                  Printf.sprintf "native reuse=%b sched=%s: %s" reuse sname
                    (first_diff got reference)
                  :: !failures)
            scheds)
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

(* Cold compile, then a simulated process restart: the in-memory memo
   is dropped and the plan recompiled from scratch (fresh settings =
   fresh plan cache), so the kernel must come back from the on-disk
   shared-object cache — zero new cc invocations, bitwise-identical
   values. *)
let test_native_disk_cache_restart () =
  Native.reset_for_tests ();
  let dir = Printf.sprintf "_mg_native_restart_%d" (Unix.getpid ()) in
  let shp = [| 8; 8; 8 |] in
  let src = src_of_seed shp 11 in
  let force () =
    let st = exec_settings ~native:(Some dir) ~reuse:false ~cfun:true
        Mg_smp.Sched_policy.Static_block in
    match run_engine st (Parr (native_graph shp src 0.5)) with
    | Rarr a -> a
    | Rscalar _ -> assert false
  in
  let n0 = Mg_obs.Metrics.value c_native_kernels in
  let compiles0 = Mg_obs.Metrics.value Native.c_compiles in
  let cold = force () in
  Alcotest.(check bool) "cold force dispatched the native kernel" true
    (Mg_obs.Metrics.value c_native_kernels > n0);
  Alcotest.(check bool) "cold force invoked the compiler" true
    (Mg_obs.Metrics.value Native.c_compiles > compiles0);
  Native.reset_for_tests ();
  let compiles1 = Mg_obs.Metrics.value Native.c_compiles in
  let disk0 = Mg_obs.Metrics.value Native.c_disk_hits in
  let warm = force () in
  Alcotest.(check int) "restart recompiled nothing" compiles1
    (Mg_obs.Metrics.value Native.c_compiles);
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
      let dir = Printf.sprintf "_mg_native_poison_%d" (Unix.getpid ()) in
      let shp = [| 8; 8; 8 |] in
      let src = src_of_seed shp 13 in
      (* Fresh coefficient: neither the memo nor any disk cache can
         already hold this kernel. *)
      let g () = Parr (native_graph shp src 0.6180339887) in
      let st = exec_settings ~native:(Some dir) ~reuse:false ~cfun:true
          Mg_smp.Sched_policy.Static_block in
      let f0 = Mg_obs.Metrics.value Native.c_failures in
      let n0 = Mg_obs.Metrics.value c_native_kernels in
      let got = run_engine st (g ()) in
      Alcotest.(check bool) "poisoned compiler counted a failure" true
        (Mg_obs.Metrics.value Native.c_failures > f0);
      Alcotest.(check int) "no native kernel dispatched" n0
        (Mg_obs.Metrics.value c_native_kernels);
      Alcotest.(check bool) "cfun fallback bitwise matches the reference" true
        (result_bits_equal got (run_reference (g ()))))

(* The full-solve acceptance matrix: class-tiny rnm2 is bitwise
   invariant across {generic,cfun,native} x {1,4} domains, and across
   the three scheduling policies under the native tier. *)
let test_driver_tiers_bitwise () =
  let rnm2 ~cfun ~native ~threads ~sched =
    (Mg_core.Driver.run ~opt:Engine.O3 ~threads ~sched ~cfun ~native ~impl:Mg_core.Driver.Sac
       ~cls:Mg_core.Classes.tiny ())
      .Mg_core.Driver.rnm2
  in
  let want = rnm2 ~cfun:false ~native:false ~threads:1 ~sched:Mg_smp.Sched_policy.Static_block in
  List.iter
    (fun (cfun, native) ->
      List.iter
        (fun threads ->
          let got = rnm2 ~cfun ~native ~threads ~sched:Mg_smp.Sched_policy.Static_block in
          Alcotest.(check bool)
            (Printf.sprintf "cfun=%b native=%b t=%d rnm2 bitwise" cfun native threads)
            true
            (Int64.equal (bits got) (bits want)))
        [ 1; 4 ])
    [ (false, false); (true, false); (true, true) ];
  List.iter
    (fun (sname, sched) ->
      let got = rnm2 ~cfun:true ~native:true ~threads:4 ~sched in
      Alcotest.(check bool)
        (Printf.sprintf "native sched=%s rnm2 bitwise" sname)
        true
        (Int64.equal (bits got) (bits want)))
    scheds

let suite =
  ( "reference_oracle",
    [ QCheck_alcotest.to_alcotest qcheck_engine_matches_reference;
      Alcotest.test_case "in-place pass exercised by qcheck" `Quick test_reuse_exercised;
      Alcotest.test_case "reuse aliases a dead pointwise operand" `Quick
        test_reuse_aliases_dead_operand;
      Alcotest.test_case "reuse off allocates" `Quick test_reuse_off_allocates;
      Alcotest.test_case "hazardous stencil operand never aliased" `Quick
        test_hazard_never_aliased;
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
    ] )
