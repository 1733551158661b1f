(** The with-loop executor driver: sac2c's code generator and runtime.

    Forcing a node runs the optimisation pipeline on each part
    ({!Fusion} folding, {!Linform} extraction and coefficient
    factoring), compiles the resulting bodies and executes them into a
    freshly allocated result array.  The work is staged through the
    pipeline modules — {!Lower} (bodies to plans), {!Cluster} (reads
    to flat-index clusters), {!Kernel} (recognition and loop nests),
    {!Plan} (compiled parts and cached plans), {!Backend} (piece
    scheduling), {!Mempool} (buffer recycling) and {!Tape} (recorded
    and replayed stepper calls) — with this module owning graph
    traversal, the plan-cache fast path, output-buffer production and
    trace emission.  It reports every buffer effect through {!Tape}'s
    recording hooks, so a {!Wl.staged} stepper's tape sees them all.

    Compiled parts are memoised in the engine's {!Plan_cache} (the
    [cache] field of {!settings}): the second and later forces of a
    structurally identical graph skip the optimisation pipeline and
    replay the stored loop nests against freshly bound buffers.  Every
    force takes one path.  A hit holds its stored plan's slots and
    rebinds the stored parts; a miss (or an uncacheable graph) runs
    the pipeline.  Either way the result is a list of compiled parts
    and a {!Plan.out_mode} over the graph's own sources, and from
    there one function produces the output buffer (re-checking a
    reuse's liveness, falling back to a fresh buffer), runs the parts,
    stores a newly compiled plan, and releases the force's pins and
    source edges.

    Every force and fold records one [wl:force] (or [wl:fold])
    {!Mg_obs.Span}, its only per-operation record (attributes: tag,
    elements, level extent, fresh bytes and, for a force, cache
    outcome, kernel paths and the output mode taken).  Its extent
    makes it an operation: the profile report's per-level table and
    {!Mg_smp.Smp_sim} time it net of nested producer forces.  With
    spans disabled a hit performs no monotonic-clock reads; a miss
    reads the clock to time its compilation for {!Plan_cache.stats}'
    [saved_seconds].
    Kernel-path dispatch counts live in {!Kernel.counters} /
    {!Mg_obs.Metrics} ([kernel.*]).  The executor holds no
    module-level mutable state of its own — every per-solve knob
    arrives through {!settings}, so concurrent engines on separate
    domains never interfere (the tape recorder is {!Tape}'s, and
    domain-local). *)

open Mg_ndarray

type settings = {
  fusion : Fusion.config;
  factor : bool;  (** Group stencil terms by coefficient (27→4 mults). *)
  line_buffers : bool;
      (** Execute recognised box stencils with edge/corner classes by
          the Fortran port's line-buffering technique: per-row plane
          sums reused across the inner loop. *)
  cfun : bool;
      (** Stage rank-3 bodies no fixed kernel recognises into {!Cfun}
          compiled closures instead of the interpreted generic nest
          (on at [O2]+ via {!Wl.settings}). *)
  native : string option;
      (** AOT-compile those same bodies to shared-object kernels via
          {!Native}, with this cache directory ([None] = tier off).
          Failures degrade to the [cfun]/generic tiers transparently;
          the flag is part of the plan-cache env fingerprint (the
          [nt] bit). *)
  reuse : bool;
      (** Buffer-reuse analysis — SAC's in-place update: a fully
          covered sweep whose operand dies at this node and is only
          read element-for-element writes its result through the dead
          operand's buffer instead of drawing from {!Mempool} (on at
          [O2]+ via {!Wl.settings}; [mempool.reuse_hits] counts the
          aliasing events). *)
  pooling : bool;
      (** Draw buffers from {!Mempool} arenas; [false] degrades every
          allocation to a plain [create_uninit] (the engine config's
          [pooling] flag, the only pooling switch). *)
  cache : Tape.cache_entry Plan_cache.t;
      (** The owning engine's plan store ({!Tape.Cached} compiled
          plans, {!Tape.Uncacheable} negative entries, {!Tape.Taped}
          stepper tapes). *)
  shards : Mg_obs.Scope.shards;
      (** The forcing engine's shard table: plan-cache events count
          there, so a force outside any solve scope is attributed
          too. *)
  pool : unit -> Mg_smp.Domain_pool.t;
  par_threshold : int;
      (** Minimum index-space cardinality before a part is run in
          parallel — the paper's "below a certain threshold grid size
          … perform all operations sequentially" (§5). *)
  env : string;
      (** The plan-affecting fields above as the fingerprint every plan
          key and stepper signature starts with (fusion, factoring, line
          buffers and the tier and reuse bits; not the thread count),
          built once by {!make_settings}.  A copy that changes one of
          those fields must be rebuilt through {!make_settings}, or its
          plans would share keys with the original's. *)
}

val make_settings :
  fusion:Fusion.config ->
  factor:bool ->
  line_buffers:bool ->
  cfun:bool ->
  native:string option ->
  reuse:bool ->
  pooling:bool ->
  cache:Tape.cache_entry Plan_cache.t ->
  shards:Mg_obs.Scope.shards ->
  pool:(unit -> Mg_smp.Domain_pool.t) ->
  par_threshold:int ->
  settings

val force : settings -> Ir.node -> Ndarray.t
(** Idempotent: cached after the first call. *)

val step : settings -> Tape.stepper -> Ir.source array -> Ir.source -> Ir.source
(** [step st s params input]: one call of the stepper's body on the
    given parameters and input ({!Tape.step}), its result materialised
    without escaping (as [Wl.materialize]). *)

val read : settings -> Ir.node -> (Ndarray.t -> 'a) -> 'a
(** [read st n f] forces [n] without escaping and applies [f] to its
    value; afterwards the buffer is recycled when [n] was not
    materialised before the call, has no consumers and is neither lent
    nor pinned. *)

type fold_op = Fadd | Fmul | Fmax | Fmin | Fcustom of (float -> float -> float)

val apply_op : fold_op -> float -> float -> float

val eval_fold :
  settings -> op:fold_op -> neutral:float -> Generator.t -> Ir.expr -> float
(** SAC's [fold] with-loop: combine the body's value over every index
    of the generator, in row-major order starting from [neutral]. *)
