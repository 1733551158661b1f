(** The with-loop executor driver: sac2c's code generator and runtime.

    Forcing a node runs the optimisation pipeline on each part
    ({!Fusion} folding, {!Linform} extraction and coefficient
    factoring), compiles the resulting bodies and executes them into a
    freshly allocated result array.  The work is staged through the
    pipeline modules — {!Lower} (bodies to plans), {!Cluster} (reads
    to flat-index clusters), {!Kernel} (recognition and loop nests),
    {!Plan} (compiled parts and cached plans), {!Backend} (piece
    scheduling) and {!Mempool} (buffer recycling) — with this module
    owning graph traversal, the plan-cache fast path, output-buffer
    production and trace emission.

    Every force emits one {!Mg_smp.Trace} event carrying the node's own
    (self) execution time, excluding nested producer forces, and opens
    one [wl:force] {!Mg_obs.Span} (attributes: cache outcome, elements,
    level extent, kernel paths).  With both tracing and spans disabled
    a force performs no monotonic-clock reads on the replay path.
    Kernel-path dispatch counts live in {!Kernel.counters} /
    {!Mg_obs.Metrics} ([kernel.*]).

    Compiled parts are memoised in the engine's {!Plan_cache} (the
    [cache] field of {!settings}): the second and later forces of a
    structurally identical graph skip the optimisation pipeline and
    replay the stored loop nests against freshly bound buffers.  The
    executor holds no module-level mutable state of its own — every
    per-solve knob arrives through {!settings}, so concurrent engines
    on separate domains never interfere. *)

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
  observe : bool;
      (** Engine-level observation gate: [false] skips trace/span
          emission and their clock reads even when the process-wide
          {!Mg_smp.Trace}/{!Mg_obs.Span} switches are on, so a silent
          engine adds no noise to a concurrent observed one. *)
  cache : Plan.cache_entry Plan_cache.t;
      (** The owning engine's plan store ({!Plan.Cached} compiled
          plans, {!Plan.Uncacheable} negative entries). *)
  pool : unit -> Mg_smp.Domain_pool.t;
  par_threshold : int;
      (** Minimum index-space cardinality before a part is run in
          parallel — the paper's "below a certain threshold grid size
          … perform all operations sequentially" (§5). *)
  sched : Mg_smp.Sched_policy.t;
      (** Chunk shape for parallel parts (static block vs dynamically
          claimed finer chunks). *)
  backend : Backend.t;
      (** Piece scheduler: the real domain pool or the sequential
          tracing simulator.  Outputs are bitwise identical. *)
}

val force : settings -> Ir.node -> Ndarray.t
(** Idempotent: cached after the first call. *)

type fold_op = Fadd | Fmul | Fmax | Fmin | Fcustom of (float -> float -> float)

val apply_op : fold_op -> float -> float -> float

val eval_fold :
  settings -> op:fold_op -> neutral:float -> Generator.t -> Ir.expr -> float
(** SAC's [fold] with-loop: combine the body's value over every index
    of the generator, in row-major order starting from [neutral]. *)
