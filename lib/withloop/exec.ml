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
   traversal, the plan-cache lookup, output-buffer production and
   trace emission.  Hits and misses share one force path: only where
   the compiled parts come from differs. *)

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
  shards : Mg_obs.Scope.shards;
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
                Some p
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
(* Observation: one wrapper for forces and folds                       *)

(* Per-domain (DLS, not a plain ref): concurrent engines forcing from
   separate domains each keep their own nested-force accounting. *)
let child_time_key = Domain.DLS.new_key (fun () -> ref 0.0)

(* An open observation of one force or fold.  Unobserved work shares
   [unwatched], so it allocates nothing and reads no clock. *)
type watch = { sp : Span.timer; t0 : float; saved_child : float }

let unwatched = { sp = Span.null; t0 = 0.0; saved_child = 0.0 }

let watch st =
  if not (observing st) then unwatched
  else begin
    let sp = Span.start () in
    let child_time = Domain.DLS.get child_time_key in
    let saved_child = !child_time in
    child_time := 0.0;
    { sp; t0 = Clock.now (); saved_child }
  end

(* Close [w]: emit the trace event with the work's self time (nested
   forces excluded) and stop its span; [attrs] is only called for an
   active span. *)
let unwatch w ~name ~tag ~elements ~extent ~bytes_alloc attrs =
  if w != unwatched then begin
    let child_time = Domain.DLS.get child_time_key in
    let total = Clock.now () -. w.t0 in
    let self = total -. !child_time in
    child_time := w.saved_child +. total;
    if Trace.enabled () then
      Trace.emit
        { Trace.tag;
          elements;
          seq_seconds = self;
          bytes_alloc;
          parallel = true;
          level_extent = extent;
        };
    if Span.active w.sp then
      Span.stop
        ~attrs:(("elements", string_of_int elements) :: ("extent", string_of_int extent) :: attrs ())
        ~name w.sp
  end

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

(* ------------------------------------------------------------------ *)
(* Output buffers                                                      *)

(* The output buffer of a force, hit or miss.  [hold] materialises a
   base source; every base the mode names is already held, so it only
   reads the pinned buffer.

   The cache key records a cached operand's shape and strides, not its
   liveness, so a reuse replays only when this graph's operand is still
   a dying unescaped node with exactly the edges the decision assumed;
   otherwise the force writes a fresh buffer (reuse is a pure
   optimisation: results are bitwise identical).  A steal needs no such
   check: the key records that its base is unmaterialised and that all
   of the base's reference-count edges are this node's, so no other
   force has materialised, let alone pinned, it. *)
let produce st ~owner ~hold shape parts (mode : Ir.source Plan.out_mode) =
  let fresh () = Mempool.alloc ~pooling:st.pooling shape in
  match mode with
  | Plan.OFresh -> fresh ()
  | Plan.OFill d ->
      let out = fresh () in
      Ndarray.fill out d;
      out
  | Plan.OBlit src ->
      let out = fresh () in
      Ndarray.blit ~src:(hold src) ~dst:out;
      out
  | Plan.OComplement (src, lb, ub) ->
      let out = fresh () in
      Lower.copy_complement (hold src) out lb ub;
      out
  | Plan.OSteal src -> hold src
  | Plan.OReuse { slot = Ir.Node b as src; edges }
    when (not b.Ir.escaped) && b.Ir.refs = edges && not (pinned_elsewhere b ~owner) ->
      let arr = hold src in
      if Mempool.get_debug () then begin
        Mempool.assert_unpooled arr.Ndarray.data ~ctx:"reuse output";
        if not (Plan.safe_to_alias arr.Ndarray.data parts) then
          failwith "Exec: hazardous in-place aliasing decision"
      end;
      Mempool.note_reuse ();
      arr
  | Plan.OReuse _ -> fresh ()

(* The source whose buffer [out] took over (stolen base or reused
   operand), if any. *)
let taken_over (mode : Ir.source Plan.out_mode) out =
  match mode with
  | Plan.OSteal (Ir.Node b) | Plan.OReuse { slot = Ir.Node b; _ } -> (
      match b.Ir.cache with Some a when a == out -> Some b | _ -> None)
  | _ -> None

let mode_name : _ Plan.out_mode -> string = function
  | Plan.OFresh -> "fresh"
  | Plan.OFill _ -> "fill"
  | Plan.OBlit _ -> "blit"
  | Plan.OComplement _ -> "complement"
  | Plan.OSteal _ -> "steal"
  | Plan.OReuse _ -> "reuse"

(* ------------------------------------------------------------------ *)
(* Forcing

   Every force goes one way: the plan cache either supplies a stored
   plan ([replay]) or the pipeline compiles one ([compile]); both hand
   their parts and output mode to [finish], which produces the output,
   runs the parts and releases the force's sources. *)

(* Where a force's parts came from: a stored plan, or the pipeline —
   with the key and bindings to store the result under when the graph
   is cacheable. *)
type origin =
  | Hit of Plan.cplan
  | Compiled of {
      record : (string * Ir.source array) option;
      recorded : (Ir.node * Ndarray.buffer) list;
      compile_cost : float;
    }

let rec force st (n : Ir.node) : Ndarray.t =
  match n.Ir.cache with
  | Some a -> a
  | None -> (
      let key = Plan_cache.key_of_graph ~env:(env_of st) ~fold:st.fusion.Fusion.fold n in
      let w = watch st in
      let pinned = ref [] in
      (* Materialise a source of [n] and pin it until [n]'s parts have
         run. *)
      let hold = function
        | Ir.Arr a -> a
        | Ir.Node m ->
            let arr = force st m in
            pin ~owner:n.Ir.nid pinned m;
            arr
      in
      match Option.map (fun (k, bindings) -> (Plan_cache.find st.cache k, bindings)) key with
      | Some (Some (Plan.Cached p), bindings) -> replay st w n ~hold pinned p bindings
      | Some (None, _) -> compile st w n ~hold pinned key
      | Some (Some Plan.Uncacheable, _) | None ->
          Plan_cache.note_uncacheable st.shards;
          compile st w n ~hold pinned None)

(* A hit: hold the plan's slots in the order the compiling force
   materialised them, then rebind the stored parts to those buffers. *)
and replay st w n ~hold pinned (p : Plan.cplan) bindings =
  Array.iter (fun i -> ignore (hold bindings.(i))) p.Plan.corder;
  let parts =
    Array.fold_right
      (fun ((cpt : Plan.cpart), slots) acc ->
        Plan.Ccompiled (Plan.rebind_cpart cpt (fun j -> (hold bindings.(slots.(j))).Ndarray.data))
        :: acc)
      p.Plan.cparts []
  in
  finish st w n ~hold pinned parts ~elements:p.Plan.celements
    (Plan.map_mode (Array.get bindings) p.Plan.cmode)
    (Hit p)

(* A miss, or an uncacheable graph: the full pipeline. *)
and compile st w (n : Ir.node) ~hold pinned record =
  let shape = n.Ir.nshape in
  (* Every node this force materialises, with the buffer it had then,
     newest first: the plan's slots resolve through these buffers, and
     their order is the replay's forcing order. *)
  let recorded = ref [] in
  let hold_node m =
    let arr = hold (Ir.Node m) in
    recorded := (m, arr.Ndarray.data) :: !recorded;
    arr
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
        if b.Ir.refs = 1 + base_readers then begin
          ignore (hold_node b);
          Some b
        end
        else None
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
  (match base_src with Some (Ir.Node m) -> ignore (hold_node m) | _ -> ());
  (* Optimise and compile.  What a later hit saves is the pipeline's
     own time: fusion's producer forces are timed and subtracted.
     These clock reads run whether or not the force is observed, but
     only on the (already expensive) miss path. *)
  let held = ref 0.0 in
  let fusion_hold m =
    let t = Clock.now () in
    let arr = hold_node m in
    held := !held +. (Clock.now () -. t);
    arr
  in
  let cstart = Clock.now () in
  let parts =
    span_scoped st ~name:"wl:fusion" (fun () ->
        List.concat_map
          (fun (p : Ir.part) -> Fusion.optimize st.fusion ~force:fusion_hold p.Ir.gen p.Ir.body)
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
  let compile_cost = Clock.now () -. cstart -. !held in
  let elements = List.fold_left (fun acc c -> acc + Plan.compiled_card c) 0 compiled in
  let mode =
    match (stolen, base_src, compiled) with
    | Some b, _, _ -> Plan.OSteal (Ir.Node b)
    | None, None, _ when elements >= Shape.num_elements shape -> (
        match if st.reuse then reuse_candidate n shape compiled else None with
        | Some p -> Plan.OReuse { slot = Ir.Node p; edges = p.Ir.refs }
        | None -> Plan.OFresh)
    | None, None, _ -> Plan.OFill default
    | None, Some src, [ c ] when Generator.is_dense (Plan.compiled_gen c) ->
        (* Non-lowered modarray with one dense part: only the
           complement of the part needs the base. *)
        let g = Plan.compiled_gen c in
        Plan.OComplement (src, Array.copy g.Generator.lb, Array.copy g.Generator.ub)
    | None, Some src, _ -> Plan.OBlit src
  in
  finish st w n ~hold pinned compiled ~elements mode
    (Compiled { record; recorded = List.rev !recorded; compile_cost })

(* Shared by hits and misses: produce the output, run the parts, store
   a compiled plan, then let the in-place source, the pins and the
   source edges go. *)
and finish st w (n : Ir.node) ~hold pinned parts ~elements mode origin =
  let shape = n.Ir.nshape in
  let out = produce st ~owner:n.Ir.nid ~hold shape parts mode in
  let inplace = taken_over mode out in
  exec_parts st out parts;
  Ir.set_cache n out;
  (* Store the plan before the pins drop: [unpin] and
     [release_sources] may recycle the producers' buffers. *)
  let outcome =
    match origin with
    | Hit p ->
        Plan_cache.note_hit st.shards ~saved:p.Plan.ccompile;
        "hit"
    | Compiled { record = None; _ } -> "uncacheable"
    | Compiled { record = Some (key, bindings); recorded; compile_cost } -> (
        match Plan.assemble ~bindings ~recorded ~mode ~elements ~compile_cost parts with
        | Some p ->
            Plan_cache.add st.cache ~shards:st.shards key (Plan.Cached p);
            Plan_cache.note_miss st.shards;
            "miss"
        | None ->
            Plan_cache.add st.cache ~shards:st.shards key Plan.Uncacheable;
            Plan_cache.note_uncacheable st.shards;
            "uncacheable")
  in
  (* Only now may the in-place source forget its (overwritten) buffer,
     which is live as [n]'s value. *)
  Option.iter Ir.clear_cache inplace;
  unpin ~pooling:st.pooling !pinned;
  release_sources ~pooling:st.pooling n;
  unwatch w ~name:"wl:force"
    ~tag:(match n.Ir.spec with Ir.Genarray _ -> "wl:genarray" | Ir.Modarray _ -> "wl:modarray")
    ~elements
    ~extent:(if Shape.rank shape > 0 then shape.(0) else 0)
    ~bytes_alloc:(if Option.is_none inplace then 8 * Shape.num_elements shape else 0)
    (fun () ->
      [ ("cache", outcome);
        ("kernel", kernels_of parts);
        ("out", match (mode, inplace) with Plan.OReuse _, None -> "fresh" | _ -> mode_name mode);
      ]);
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
  let w = watch st in
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
  let counts = Generator.counts gen in
  unwatch w ~name:"wl:fold" ~tag:"wl:fold" ~elements:(Generator.cardinal gen)
    ~extent:(if Array.length counts = 0 then 0 else counts.(0))
    ~bytes_alloc:0
    (fun () -> []);
  result
