open Mg_ndarray
module Trace = Mg_smp.Trace
module Clock = Mg_smp.Clock
module Domain_pool = Mg_smp.Domain_pool
module Sched_policy = Mg_smp.Sched_policy
module Span = Mg_obs.Span

(* The executor driver.  The heavy lifting lives in the pipeline
   stages — Lower (bodies to plans), Cluster (reads to flat-index
   clusters), Kernel (recognition and loop nests), Plan (compiled
   parts and cached plans), Backend (piece scheduling), Mempool
   (buffer recycling).  This module wires them: it owns graph
   traversal, the plan-cache fast path, output-buffer production and
   trace emission. *)

type settings = {
  fusion : Fusion.config;
  factor : bool;
  line_buffers : bool;
  cfun : bool;
  native : string option;  (* AOT cache dir; [None] = native tier off *)
  reuse : bool;
  pooling : bool;
  observe : bool;
  cache : Plan.cache_entry Plan_cache.t;
  pool : unit -> Domain_pool.t;
  par_threshold : int;
  sched : Sched_policy.t;
  backend : Backend.t;
}

type fold_op = Fadd | Fmul | Fmax | Fmin | Fcustom of (float -> float -> float)

(* Observation gate shared by traces and spans: clock reads and the
   child-time bookkeeping below are skipped entirely unless some
   consumer is listening AND the engine opted in, so a production
   force costs no monotonic clock reads (the [Trace.emit] doc
   promise) and an observing engine never times a silent one's
   forces. *)
let observing st = st.observe && (Trace.enabled () || Span.enabled ())

let span_start st = if st.observe then Span.start () else Span.null
let span_scoped st ~name f = if st.observe then Span.with_ ~name f else f ()

(* ------------------------------------------------------------------ *)
(* Backend dispatch                                                    *)

let ctx_of st =
  { Backend.pool = st.pool (); sched = st.sched; par_threshold = st.par_threshold }

let exec_parts st (out : Ndarray.t) (parts : Plan.compiled list) =
  let module B = (val st.backend : Backend.S) in
  B.run_parts (ctx_of st) parts ~out

(* ------------------------------------------------------------------ *)
(* Reference counting: consume one edge from [n] to each of its
   sources; recycle producer caches whose last consumer this was.      *)

let rec release_sources ~pooling (n : Ir.node) =
  if not n.Ir.released then begin
    (* One-shot: a recompute of [n] (its cache was recycled and a stale
       consumer re-forced it) must not consume its source edges a
       second time — undercounted refs make the in-place liveness
       checks treat live operands as dead. *)
    Ir.mark_released n;
    let consume src =
      Ir.decr_refs src;
      match src with
      | Ir.Node p when p.Ir.refs <= 0 && (not p.Ir.escaped) && p.Ir.pin <> 0 ->
          (* Its pinning force's parts still read the buffer: leave the
             recycle to [unpin]. *)
          Ir.set_pin p (-abs p.Ir.pin)
      | Ir.Node p when p.Ir.refs <= 0 && not p.Ir.escaped -> (
          match p.Ir.cache with
          | Some arr ->
              Ir.clear_cache p;
              Mempool.recycle ~pooling arr
          | None ->
              (* Dead without ever executing: fusion substituted every
                 read of [p] into its consumers, so no execution will
                 ever consume [p]'s own source edges.  Release them now
                 or the producers [p] reads (fusion-materialised arrays
                 in particular) stay pinned — and pooled buffers leak —
                 for the life of the graph. *)
              release_sources ~pooling p)
      | Ir.Node _ | Ir.Arr _ -> ()
    in
    let parts =
      match n.Ir.spec with
      | Ir.Genarray { parts; _ } -> parts
      | Ir.Modarray { base; parts } ->
          consume base;
          parts
    in
    List.iter (fun (p : Ir.part) -> List.iter consume (Ir.expr_sources p.Ir.body)) parts
  end

(* ------------------------------------------------------------------ *)
(* Pins ([Ir.node.pin]): a force pins each source it materialises,
   under its own node id, until its compiled parts have run.  Fusion
   may fold a consumer [c] of source [p] into the forced node's parts
   (which then read [p]'s buffer directly) while another part
   materialises [c], whose release consumes [p]'s last edge — so
   [release_sources] only marks a pinned node (negated pin), and
   [unpin] performs the recycle it deferred.  A force that raises
   leaves its pins set: those nodes are never recycled into the pool
   (the GC frees them with the graph) nor stolen or reused in place,
   which costs buffers, not correctness. *)

let pinned_elsewhere (m : Ir.node) ~owner = m.Ir.pin <> 0 && abs m.Ir.pin <> owner

(* Pin [m] for [owner], unless an enclosing force already holds it. *)
let pin ~owner pinned (m : Ir.node) =
  if m.Ir.pin = 0 then begin
    Ir.set_pin m owner;
    pinned := m :: !pinned
  end

let unpin ~pooling (pinned : Ir.node list) =
  List.iter
    (fun (m : Ir.node) ->
      let deferred = m.Ir.pin < 0 in
      Ir.set_pin m 0;
      if deferred then
        match m.Ir.cache with
        | Some arr ->
            Ir.clear_cache m;
            Mempool.recycle ~pooling arr
        | None -> ())
    pinned

(* ------------------------------------------------------------------ *)
(* Buffer reuse: a dying operand whose buffer the output may alias.

   Legal when the operand is a direct node source of [n] with a cached
   value of the output's shape, never escaped, whose only outstanding
   consumer edges are exactly the ones [release_sources n] is about to
   consume, and whose reads in the compiled parts are all identity
   ([Plan.safe_to_alias]).  The edge count per source mirrors
   [release_sources]: one for a modarray base plus one per part whose
   deduplicated source list contains the node.  An operand pinned by an
   enclosing force is still read by that force's parts. *)

let reuse_candidate (n : Ir.node) shape (compiled : Plan.compiled list) =
  let base, parts =
    match n.Ir.spec with
    | Ir.Genarray { parts; _ } -> (None, parts)
    | Ir.Modarray { base; parts } -> (Some base, parts)
  in
  let edges_of p =
    let from_base = match base with Some (Ir.Node b) when b == p -> 1 | _ -> 0 in
    List.fold_left
      (fun acc (pt : Ir.part) ->
        if
          List.exists
            (function Ir.Node s -> s == p | Ir.Arr _ -> false)
            (Ir.expr_sources pt.Ir.body)
        then acc + 1
        else acc)
      from_base parts
  in
  let srcs =
    (match base with Some s -> [ s ] | None -> [])
    @ List.concat_map (fun (pt : Ir.part) -> Ir.expr_sources pt.Ir.body) parts
  in
  let seen = Hashtbl.create 4 in
  List.find_map
    (function
      | Ir.Arr _ -> None
      | Ir.Node p ->
          if Hashtbl.mem seen p.Ir.nid then None
          else begin
            Hashtbl.add seen p.Ir.nid ();
            match p.Ir.cache with
            | Some arr
              when (not p.Ir.escaped)
                   && (not (pinned_elsewhere p ~owner:n.Ir.nid))
                   && arr.Ndarray.shape = shape
                   && p.Ir.refs = edges_of p
                   && Plan.safe_to_alias arr.Ndarray.data compiled ->
                Some (p, arr, p.Ir.refs)
            | _ -> None
          end)
    srcs

(* ------------------------------------------------------------------ *)
(* Plan cache — per-engine: [st.cache] is the owning engine's store,
   handed down through [settings].                                     *)

(* The optimisation-configuration fingerprint prefixed to every key.
   Thread count, scheduling policy and backend are deliberately
   absent: the parallel split is applied at execution time, so one
   plan serves any pool size, policy and backend. *)
let env_of st =
  Printf.sprintf "v1;fold=%b;ss=%b;st=%d;fac=%b;lb=%b;cf=%b;ru=%b;nt=%b;"
    st.fusion.Fusion.fold st.fusion.Fusion.split_strided st.fusion.Fusion.split_threshold
    st.factor st.line_buffers st.cfun st.reuse (st.native <> None)

(* ------------------------------------------------------------------ *)
(* Forcing                                                             *)

(* Per-domain (DLS, not a plain ref): concurrent engines forcing from
   separate domains each keep their own nested-force accounting. *)
let child_time_key = Domain.DLS.new_key (fun () -> ref 0.0)

(* Distinct kernel paths of a force, for the span's [kernel] attribute
   (only built when a span is active). *)
let kernels_of (parts : Plan.compiled list) =
  String.concat ","
    (List.sort_uniq compare
       (List.map
          (function
            | Plan.Ccompiled cp -> (
                match cp.Plan.kkernel with
                | Some k -> Kernel.k3_name k
                | None -> "lin-generic")
            | Plan.Cclosure _ -> "cfun")
          parts))

let rec force st (n : Ir.node) : Ndarray.t =
  match n.Ir.cache with
  | Some a -> a
  | None -> (
      match Plan_cache.key_of_graph ~env:(env_of st) ~fold:st.fusion.Fusion.fold n with
      | None ->
          Plan_cache.note_uncacheable st.cache;
          force_slow st n None
      | Some (key, bindings) -> (
          match Plan_cache.find st.cache key with
          | Some (Plan.Cached p) -> force_replay st n p bindings
          | Some Plan.Uncacheable ->
              Plan_cache.note_uncacheable st.cache;
              force_slow st n None
          | None -> force_slow st n (Some (key, bindings))))

(* The cached fast path: force the plan's slots in the order the
   compiling force materialised them, pinning each, then produce the
   output buffer and run the stored loop nests against those
   buffers. *)
and force_replay st (n : Ir.node) (p : Plan.cplan) (bindings : Ir.source array) : Ndarray.t =
  let timed = observing st in
  let sp = span_start st in
  let child_time = Domain.DLS.get child_time_key in
  let saved_child = !child_time in
  if timed then child_time := 0.0;
  let t0 = if timed then Clock.now () else 0.0 in
  let shape = n.Ir.nshape in
  let owner = n.Ir.nid in
  let pinned = ref [] in
  let memo : Ndarray.buffer option array = Array.make (Array.length bindings) None in
  let hold i =
    let arr =
      match bindings.(i) with
      | Ir.Arr a -> a
      | Ir.Node m ->
          let arr = force st m in
          pin ~owner pinned m;
          arr
    in
    memo.(i) <- Some arr.Ndarray.data;
    arr
  in
  let get_buf i = match memo.(i) with Some b -> b | None -> (hold i).Ndarray.data in
  Array.iter (fun i -> ignore (hold i)) p.Plan.corder;
  let inplace = ref false in
  let out =
    match p.Plan.cmode with
    | Plan.OFresh -> Mempool.alloc ~pooling:st.pooling shape
    | Plan.OFill d ->
        let out = Mempool.alloc ~pooling:st.pooling shape in
        Ndarray.fill out d;
        out
    | Plan.OBlit i ->
        let base = hold i in
        let out = Mempool.alloc ~pooling:st.pooling shape in
        Ndarray.blit ~src:base ~dst:out;
        out
    | Plan.OComplement (i, lb, ub) ->
        let base = hold i in
        let out = Mempool.alloc ~pooling:st.pooling shape in
        Lower.copy_complement base out lb ub;
        out
    | Plan.OSteal i -> (
        let base = hold i in
        match bindings.(i) with
        | Ir.Node b when not (pinned_elsewhere b ~owner) ->
            (* The slot stays bound to the stolen buffer, so cluster
               reads of the base resolve to it, as on the slow path. *)
            Ir.clear_cache b;
            inplace := true;
            base
        | _ ->
            (* An enclosing force still reads the base: update a
               copy.  The barrier's parts read outside their write
               sets, so the result is the same. *)
            let out = Mempool.alloc ~pooling:st.pooling shape in
            Ndarray.blit ~src:base ~dst:out;
            out)
    | Plan.OReuse { slot = i; edges } -> (
        (* The stored aliasing decision replays only when this graph's
           binding is still a dying unescaped node with exactly the
           edges the decision assumed — the cache key records shape and
           strides of a cached operand, not its liveness, so a replay
           may see the operand live, escaped, pinned by an enclosing
           force, or bound to a leaf.  Any mismatch downgrades to a
           fresh allocation (reuse is a pure optimisation; results are
           bitwise identical). *)
        match bindings.(i) with
        | Ir.Node b
          when (not b.Ir.escaped) && b.Ir.refs = edges && not (pinned_elsewhere b ~owner) ->
            let arr = hold i in
            Ir.clear_cache b;
            if Mempool.get_debug () then
              Mempool.assert_unpooled arr.Ndarray.data ~ctx:"replayed reuse output";
            Mempool.note_reuse ();
            inplace := true;
            arr
        | _ -> Mempool.alloc ~pooling:st.pooling shape)
  in
  let parts =
    Array.to_list
      (Array.map
         (fun ((cpt : Plan.cpart), slots) ->
           Plan.Ccompiled (Plan.rebind_cpart cpt (fun j -> get_buf slots.(j))))
         p.Plan.cparts)
  in
  exec_parts st out parts;
  Ir.set_cache n out;
  unpin ~pooling:st.pooling !pinned;
  release_sources ~pooling:st.pooling n;
  Plan_cache.note_hit st.cache ~saved:p.Plan.ccompile;
  if timed then begin
    let total = Clock.now () -. t0 in
    let self = total -. !child_time in
    child_time := saved_child +. total;
    if Trace.enabled () then
      Trace.emit
        { Trace.tag =
            (match n.Ir.spec with Ir.Genarray _ -> "wl:genarray" | Ir.Modarray _ -> "wl:modarray");
          elements = p.Plan.celements;
          seq_seconds = self;
          bytes_alloc = (if !inplace then 0 else 8 * Shape.num_elements shape);
          parallel = true;
          level_extent = (if Shape.rank shape > 0 then shape.(0) else 0);
        }
  end;
  if Span.active sp then
    Span.stop
      ~attrs:
        [ ("cache", "hit");
          ("elements", string_of_int p.Plan.celements);
          ("extent", string_of_int (if Shape.rank shape > 0 then shape.(0) else 0));
          ("kernel", kernels_of parts);
        ]
      ~name:"wl:force" sp;
  out

(* The full pipeline; when [record] carries this graph's key and
   bindings, the compiled result is stored for later replays. *)
and force_slow st (n : Ir.node) (record : (string * Ir.source array) option) : Ndarray.t =
  let timed = observing st in
  let sp = span_start st in
  let child_time = Domain.DLS.get child_time_key in
  let saved_child = !child_time in
  if timed then child_time := 0.0;
  let t0 = if timed then Clock.now () else 0.0 in
  let shape = n.Ir.nshape in
  let owner = n.Ir.nid in
  let pinned = ref [] in
  (* Every node this force materialises, with the buffer it had then,
     newest first: the plan's slots resolve through these buffers, and
     their order is the replay's forcing order. *)
  let recorded = ref [] in
  let hold (m : Ir.node) =
    let arr = force st m in
    pin ~owner pinned m;
    recorded := (m, arr.Ndarray.data) :: !recorded;
    arr
  in
  let bindings_opt = Option.map snd record in
  let cacheable = ref (record <> None) in
  let mode = ref Plan.OFresh in
  (* The source whose buffer the output takes over (stolen base or
     reused operand).  Its cache is cleared only after the plan is
     assembled and before [release_sources] runs, which would
     otherwise recycle the buffer out from under [n]. *)
  let inplace : Ir.node option ref = ref None in
  (* Resolve a source to its binding slot for the stored plan's output
     mode; an unresolvable source makes the plan uncacheable. *)
  let record_mode src f =
    match bindings_opt with
    | None -> ()
    | Some bindings -> (
        match Plan.slot_of_source bindings src with
        | Some i -> mode := f i
        | None -> cacheable := false)
  in
  (* Update-in-place: a barrier modarray (the periodic-border nodes
     of the array library, whose parts provably read outside their
     write sets) whose base node has no consumer other than this
     node steals the base's freshly computed buffer instead of
     copying it — SAC's reference-count-driven reuse. *)
  let stolen =
    match n.Ir.spec with
    | Ir.Modarray { base = Ir.Node b; parts } when n.Ir.barrier && b.Ir.cache = None ->
        let base_readers =
          List.length
            (List.filter
               (fun (p : Ir.part) ->
                 List.exists
                   (function Ir.Node s -> s == b | Ir.Arr _ -> false)
                   (Ir.expr_sources p.Ir.body))
               parts)
        in
        if b.Ir.refs = 1 + base_readers then Some (b, hold b) else None
    | _ -> None
  in
  (* Lower modarray to a fully-covering genarray when all parts are
     dense boxes: the complement reads the base element-wise, which
     the optimiser can fold instead of copying.  A stolen base needs
     no complement parts at all — its values are already in place. *)
  let raw_parts, base_src, default =
    match n.Ir.spec with
    | Ir.Genarray { default; parts } -> (parts, None, default)
    | Ir.Modarray { base; parts } ->
        if stolen <> None then (parts, None, 0.0)
        else if List.for_all (fun (p : Ir.part) -> Generator.is_dense p.Ir.gen) parts then
          (parts @ Lower.complement_parts shape base parts, None, 0.0)
        else (parts, Some base, 0.0)
  in
  let base_arr = Option.map (function Ir.Arr a -> a | Ir.Node m -> hold m) base_src in
  (* Optimise and compile, separating the pipeline's own cost from
     nested producer forces — it is what a later cache hit saves.
     These two clock reads are kept even when observation is off: they
     feed the plan cache's [saved_seconds] accounting and only run on
     the (already expensive) miss path. *)
  let cstart = Clock.now () in
  let child0 = !child_time in
  let parts =
    span_scoped st ~name:"wl:fusion" (fun () ->
        List.concat_map
          (fun (p : Ir.part) -> Fusion.optimize st.fusion ~force:hold p.Ir.gen p.Ir.body)
          raw_parts)
  in
  let ostrides = Shape.strides shape in
  let compiled =
    List.filter_map
      (fun (p : Ir.part) ->
        if Generator.is_empty p.Ir.gen then None
        else
          Some
            (Plan.compile_part ~factor:st.factor ~line_buffers:st.line_buffers ~cfun:st.cfun
               ~native:st.native ~ostrides p))
      parts
  in
  let compile_cost = Clock.now () -. cstart -. (!child_time -. child0) in
  let elements = List.fold_left (fun acc c -> acc + Plan.compiled_card c) 0 compiled in
  let out =
    match stolen with
    | Some (b, arr) ->
        inplace := Some b;
        record_mode (Ir.Node b) (fun i -> Plan.OSteal i);
        arr
    | None ->
        let fully_covered = elements >= Shape.num_elements shape && base_src = None in
        if fully_covered then begin
          match if st.reuse then reuse_candidate n shape compiled else None with
          | Some (p, arr, edges) ->
              (* Write through the dying operand's buffer. *)
              inplace := Some p;
              record_mode (Ir.Node p) (fun i -> Plan.OReuse { slot = i; edges });
              if Mempool.get_debug () then begin
                Mempool.assert_unpooled arr.Ndarray.data ~ctx:"reuse output";
                if not (Plan.safe_to_alias arr.Ndarray.data compiled) then
                  failwith "Exec: hazardous in-place aliasing decision"
              end;
              Mempool.note_reuse ();
              arr
          | None -> Mempool.alloc ~pooling:st.pooling shape
        end
        else begin
          match (base_arr, base_src) with
          | Some base, Some src ->
              let out = Mempool.alloc ~pooling:st.pooling shape in
              (match compiled with
              | [ c ] when Generator.is_dense (Plan.compiled_gen c) ->
                  (* Non-lowered modarray with one dense part: only
                     the complement of the part needs the base. *)
                  let g = Plan.compiled_gen c in
                  Lower.copy_complement base out g.Generator.lb g.Generator.ub;
                  record_mode src (fun i ->
                      Plan.OComplement (i, Array.copy g.Generator.lb, Array.copy g.Generator.ub))
              | _ ->
                  Ndarray.blit ~src:base ~dst:out;
                  record_mode src (fun i -> Plan.OBlit i));
              out
          | _ ->
              let out = Mempool.alloc ~pooling:st.pooling shape in
              Ndarray.fill out default;
              mode := Plan.OFill default;
              out
        end
  in
  exec_parts st out compiled;
  Ir.set_cache n out;
  (* Store the plan before the pins drop: [unpin] and
     [release_sources] may recycle the producers' buffers. *)
  let outcome = ref "uncacheable" in
  (match record with
  | None -> ()
  | Some (key, bindings) ->
      let entry =
        if not !cacheable then None
        else
          Plan.assemble ~bindings ~recorded:(List.rev !recorded) ~mode:!mode ~elements
            ~compile_cost compiled
      in
      match entry with
      | Some p ->
          Plan_cache.add st.cache key (Plan.Cached p);
          Plan_cache.note_miss st.cache;
          outcome := "miss"
      | None ->
          Plan_cache.add st.cache key Plan.Uncacheable;
          Plan_cache.note_uncacheable st.cache);
  (* Only now may the in-place source forget its (overwritten)
     buffer, which is live as [n]'s value. *)
  Option.iter Ir.clear_cache !inplace;
  unpin ~pooling:st.pooling !pinned;
  release_sources ~pooling:st.pooling n;
  if timed then begin
    let total = Clock.now () -. t0 in
    let self = total -. !child_time in
    child_time := saved_child +. total;
    if Trace.enabled () then
      Trace.emit
        { Trace.tag =
            (match n.Ir.spec with Ir.Genarray _ -> "wl:genarray" | Ir.Modarray _ -> "wl:modarray");
          elements;
          seq_seconds = self;
          bytes_alloc = (if Option.is_none !inplace then 8 * Shape.num_elements shape else 0);
          parallel = true;
          level_extent = (if Shape.rank shape > 0 then shape.(0) else 0);
        }
  end;
  if Span.active sp then
    Span.stop
      ~attrs:
        [ ("cache", !outcome);
          ("elements", string_of_int elements);
          ("extent", string_of_int (if Shape.rank shape > 0 then shape.(0) else 0));
          ("kernel", kernels_of compiled);
        ]
      ~name:"wl:force" sp;
  out

(* ------------------------------------------------------------------ *)
(* Fold                                                                *)

let apply_op = function
  | Fadd -> ( +. )
  | Fmul -> ( *. )
  | Fmax -> Float.max
  | Fmin -> Float.min
  | Fcustom f -> f

let eval_fold st ~op ~neutral gen body =
  let timed = observing st in
  let sp = span_start st in
  let child_time = Domain.DLS.get child_time_key in
  let saved_child = !child_time in
  if timed then child_time := 0.0;
  let t0 = if timed then Clock.now () else 0.0 in
  let parts =
    span_scoped st ~name:"wl:fusion" (fun () ->
        Fusion.optimize st.fusion ~force:(force st) gen body)
  in
  let f = apply_op op in
  let interp acc (p : Ir.part) body =
    let cf = Lower.closure_of body in
    let acc = ref acc in
    Generator.iter p.Ir.gen (fun iv -> acc := f !acc (cf iv));
    !acc
  in
  let result =
    List.fold_left
      (fun acc (p : Ir.part) ->
        match Lower.plan_of ~factor:st.factor p.Ir.body with
        | Lower.Plin { const; groups; body } -> (
            match Cluster.axes_of_gen p.Ir.gen with
            | Some ax -> (
                match Cluster.clusterize ax groups with
                | Some clusters ->
                    Kernel.fold_lin ~op:f ~init:acc ~const clusters ~counts:ax.Cluster.counts
                | None -> interp acc p body)
            | None -> interp acc p body)
        | Lower.Pfun cf ->
            let acc = ref acc in
            Generator.iter p.Ir.gen (fun iv -> acc := f !acc (cf iv));
            !acc)
      neutral parts
  in
  if timed then begin
    let total = Clock.now () -. t0 in
    let self = total -. !child_time in
    child_time := saved_child +. total;
    if Trace.enabled () then
      Trace.emit
        { Trace.tag = "wl:fold";
          elements = Generator.cardinal gen;
          seq_seconds = self;
          bytes_alloc = 0;
          parallel = true;
          level_extent =
            (let c = Generator.counts gen in
             if Array.length c = 0 then 0 else c.(0));
        }
  end;
  if Span.active sp then
    Span.stop
      ~attrs:
        [ ("elements", string_of_int (Generator.cardinal gen));
          ("extent",
           string_of_int
             (let c = Generator.counts gen in
              if Array.length c = 0 then 0 else c.(0)));
        ]
      ~name:"wl:fold" sp;
  result
