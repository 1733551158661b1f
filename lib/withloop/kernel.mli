(** Stage 3 of the executor pipeline: kernel recognition and loop nests.

    A compiled part's clusters are inspected once, when the part is
    compiled, and dispatched to one of the specialised rank-3 nests —
    box stencil, line-buffered box stencil, two box stencils,
    element-wise zip, flat-weighted, row copy — or the generic cluster
    nest; the ghost-shell slabs of one force then run as one group
    kernel ({!shell_group}).  The choice
    is reified as an opaque {!k3} value that the plan cache stores and
    replay rebinds, so recognition never runs twice for the same
    with-loop. *)

open Mg_ndarray

(** {1 Path counters and timing}

    Every kernel path has a dispatch counter ([kernel.stencil],
    [kernel.cfun], …; {!Mg_obs.Metrics} atomics, so concurrent bumps
    from {!Mg_smp.Domain_pool} workers are never lost) and a
    ns-per-element log₂ histogram family ([kernel.ns_elt.stencil],
    [kernel.ns_elt.cfun], …), both kept in one table.  {!run_k3} bumps
    the counter on every piece; with timing on it also records the
    piece's truncated ns/elt, once, into the current {!Mg_obs.Scope}'s
    engine cell of the family (the unlabelled cell outside a solve);
    the unlabelled read is the family total.
    Rendered by {!Mg_obs.Profile_report} and dumped into [bench.json]. *)

val c_cfun : Mg_obs.Metrics.counter
(** [kernel.cfun]: also bumped by {!Backend}'s closure pieces. *)

val counters : unit -> (string * int) list
(** All counters as [(name, count)] pairs, in a stable order (names
    without the [kernel.] registry prefix). *)

val set_timing : bool -> unit
(** Off by default: timing costs two monotonic clock reads per piece. *)

val branch_counts : unit -> (string * int) list
(** The fixed nests' per-branch call counters
    ([kernel.branch.<nest>.<body>], e.g. [linebuf.resid],
    [flat.8], [zip.3], [stencil.any]) as
    [(name, count)] pairs, one per row loop: {!choose_k3} bumps the
    counter of the loop a part is compiled to, and every execution of
    the part (cached replays included) runs that loop. *)

(** {1 Rank-3 kernel dispatch} *)

(** The kernel choice for a rank-3 part, decided once at compile time.
    Stencil payloads carry cluster indices so they can be rebound. *)
type k3

val k3_name : k3 -> string

val choose_k3 :
  line_buffers:bool ->
  cfun:bool ->
  native:string option ->
  const:float ->
  Cluster.ccluster array ->
  osteps:int array ->
  k3
(** Recognise the part's kernel: identity copy, box stencil (line
    buffered when [line_buffers] and the inner walk is unit), two box
    stencils in box order (in the generic nest's order), zip of
    single reads (a constant is a zip of none), flat-weighted single
    cluster — and for everything
    else the tier ladder: a {!Native}-compiled shared-object kernel
    when [native] carries the AOT cache directory (degrading through
    the ladder when the toolchain refuses), a {!Cfun}-compiled
    closure when [cfun], the interpreted generic nest otherwise. *)

(** {2 Ghost-shell groups} *)

val groupable : k3 -> bool
(** Element-wise kernels a shell group can run: zips (constants
    included) and identity copies. *)

val is_shell : k3 -> bool

val shell_group :
  (float * k3 * Cluster.ccluster array * int * int array * int array) list ->
  k3 * Cluster.ccluster array
(** [shell_group members] for members [(const, kernel, clusters, obase,
    osteps, counts)], each {!groupable}, in run order: one kernel
    running every member in that order with no allocation, and the
    group's clusters — one per distinct buffer, the only thing a
    rebind changes.  Each element computes exactly what its member's
    own kernel computes.  Bumps [kernel.branch.shell]; a group counts
    as one [interp] piece. *)

val shell_alias_safe : k3 -> Cluster.ccluster array -> Ndarray.buffer -> bool
(** For a shell group and its clusters: whether every read of the
    buffer is an identity read (a member reads an element only while
    computing that element). *)

val rebind_k3 : Cluster.ccluster array -> koff0:int -> k3 -> k3
(** Rebuild a kernel payload against clusters that were rebound to
    fresh buffers and/or base-shifted by [koff0] axis-0 steps. *)

val run_k3 :
  const:float ->
  k3 ->
  Cluster.ccluster array ->
  Ndarray.buffer ->
  obase:int ->
  osteps:int array ->
  counts:int array ->
  unit
(** Execute the chosen nest over the given layouts, bumping the
    matching path counter. *)

(** {1 Generic paths} *)

val run_lin_generic :
  const:float ->
  Cluster.ccluster array ->
  Ndarray.buffer ->
  obase:int ->
  osteps:int array ->
  counts:int array ->
  unit
(** The generic cluster nest, any rank: parts that are not rank 3,
    and rank-3 parts on [K3generic].  Per element it computes
    [const], then each cluster's groups in order, each group sum as
    [0.0 +. d0 +. d1 …]: the order every other kernel replicates. *)

val fold_lin :
  op:(float -> float -> float) ->
  init:float ->
  const:float ->
  Cluster.ccluster array ->
  counts:int array ->
  float
(** Fold the clusters' linear form over the iteration space without
    materialising it (the fold with-loop's compiled path). *)
