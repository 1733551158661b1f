(** Stage 3 of the executor pipeline: kernel recognition and loop nests.

    A compiled part's clusters are inspected once, when the part is
    compiled, and dispatched to one of the specialised rank-3 nests —
    box stencil, line-buffered box stencil, element-wise zip,
    flat-weighted, row blit — or the generic cluster nest.  The choice
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
    piece's truncated ns/elt into the family's unlabelled aggregate and
    into the current {!Mg_obs.Scope}'s shard of the same family.
    Rendered by {!Mg_obs.Profile_report} and dumped into [bench.json]. *)

val c_cfun : Mg_obs.Metrics.counter
(** [kernel.cfun]: also bumped by the backends' closure pieces. *)

val counters : unit -> (string * int) list
(** All counters as [(name, count)] pairs, in a stable order (names
    without the [kernel.] registry prefix). *)

val set_timing : bool -> unit
(** Off by default: timing costs two monotonic clock reads per piece. *)

val ns_elt_families : string list
(** Every [kernel.ns_elt.*] family {!run_k3} records into; engines
    shard exactly this list. *)

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
    buffered when [line_buffers] and the inner walk is unit), zip of
    single reads, flat-weighted single cluster — and for everything
    else the tier ladder: a {!Native}-compiled shared-object kernel
    when [native] carries the AOT cache directory (degrading through
    the ladder when the toolchain refuses), a {!Cfun}-compiled
    closure when [cfun], the interpreted generic nest otherwise. *)

val rebind_k3 : Cluster.ccluster array -> koff0:int -> koff1:int -> k3 -> k3
(** Rebuild a kernel payload against clusters that were rebound to
    fresh buffers and/or base-shifted by [koff0] axis-0 steps and
    [koff1] axis-1 steps (tiled pieces displace along both). *)

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
(** Any-rank cluster nest for parts that are not rank 3. *)

val fold_lin :
  op:(float -> float -> float) ->
  init:float ->
  const:float ->
  Cluster.ccluster array ->
  counts:int array ->
  float
(** Fold the clusters' linear form over the iteration space without
    materialising it (the fold with-loop's compiled path). *)
