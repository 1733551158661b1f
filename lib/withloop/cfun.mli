(** Staged compilation of clustered part bodies to specialised
    closures — the code-generation step the paper's sac2c performs for
    every with-loop body (§5, §6), applied to the parts our fixed
    kernel shapes do not recognise.

    [compile] walks the cluster/group/delta structure once and emits
    one closed-loop closure per (cluster, group): delta offsets
    let-bound and unrolled for the arities factored MG bodies produce
    (1/2/3/4/6/8/12 reads).  [run] then replaces the generic nest's
    ({!Kernel.run_lin_generic}) per-element interpretation by one
    closure call per output row per group, choosing the longest axis
    of each piece as the row axis so degenerate border and residue
    pieces still get long rows.

    The passes of a row accumulate into a per-domain row accumulator
    that starts at [const]; [run] then stores the finished row.  Each
    output element is written once, after all of its operands are
    read, so aliasing the output with an identity-read operand is
    legal on this tier as on every other.

    Compiled kernels are parameterised over buffer slots: passes hold
    no buffers or bases and read them from the live cluster array at
    run time, so plan replay ({!Plan.rebind_cpart}) and per-piece base
    shifting ({!Cluster.shift_base}) need no recompilation, and the
    kernel is cached inside its plan in {!Plan_cache}.

    Results are bitwise-identical to the generic nest: the passes
    replay its exact floating-point accumulation order, including each
    group sum's leading [0.0 +.]. *)

open Mg_ndarray

type t
(** A compiled rank-3 part body. *)

val compile : const:float -> Cluster.ccluster array -> t
(** Stage the clustered body into pass closures.  Only structural data
    (steps, coefficients, deltas, [const]) is baked — never buffers or
    bases. *)

val run :
  t ->
  Cluster.ccluster array ->
  Ndarray.buffer ->
  obase:int ->
  osteps:int array ->
  counts:int array ->
  unit
(** Execute over the live clusters (their current buffers and bases)
    into [out], whose rank-3 layout is [obase]/[osteps] over
    [counts].  Same contract as {!Kernel.run_lin_generic}. *)

val row_axis : int array -> int
(** The innermost (row) axis of a rank-3 walk over [counts]: the axis
    with the most elements, ties preferring axis 2, then axis 1.  The
    fixed zip and flat nests ({!Kernel}) walk by the same rule. *)
