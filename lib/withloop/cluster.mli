(** Stage 2 of the executor pipeline: reads to flat-index clusters.

    On a generator whose axes are affine (every width 1), each linear
    read has a flat base index and per-axis flat steps into its source
    buffer.  Reads off the same buffer advancing in lockstep are
    merged into one {e cluster}: a base, per-axis steps, and the
    coefficient-grouped neighbour deltas relative to the base.  This
    is the executor's IR between lowering and kernel selection — every
    NAS-MG stencil becomes a single cluster whose deltas are the
    neighbour offsets. *)

open Mg_ndarray

(** Affine view of a generator: positions along axis [j] are
    [c0.(j) + k * astep.(j)] for [k < counts.(j)]. *)
type axes = { c0 : int array; astep : int array; counts : int array }

val axes_of_gen : Generator.t -> axes option
(** [None] when some axis has width > 1. *)

(** Compiled cluster: coefficient and delta arrays are flat and
    parallel so the per-element loop touches no boxed tuples.
    [xstrides] are the source array's own strides — the units the
    neighbour deltas are expressed in, which kernel recognition
    needs. *)
type ccluster = {
  xbuf : Ndarray.buffer;
  xbase : int;
  xsteps : int array;
  xstrides : int array;
  xcoeffs : float array;
  xdeltas : int array array;
}

val read_layout :
  axes -> Linform.read -> (Ndarray.buffer * int array * int * int array) option
(** Flat layout [(buffer, strides, base, steps)] of one read on the
    given axes; [None] when the index map's division does not line up
    with the axis steps.
    @raise Invalid_argument when the read image escapes the source. *)

val clusterize : axes -> (float * Linform.read list) list -> ccluster array option
(** Merge the groups' reads into clusters; [None] as {!read_layout}. *)

val out_layout_of : ostrides:int array -> axes -> int * int array
(** Flat base and per-axis steps of the output for these axes, from
    the output strides alone (cached plans are compiled against
    outputs that do not exist yet on replay). *)

val walks_output :
  counts:int array -> obase:int -> osteps:int array -> base:int -> steps:int array -> bool
(** Whether a read at flat [base] with per-axis [steps] visits, over
    [counts], exactly the positions the output writes from [obase] with
    [osteps] — the identity read of the buffer-reuse rule.  An axis
    with at most one coordinate never advances, so its steps are not
    compared (a read's step there is 0; the output keeps its stride). *)

val shift_base : ccluster -> int -> ccluster
(** Displace a cluster's flat base (parallel piece offsetting). *)

val with_buffer : ccluster -> Ndarray.buffer -> ccluster
(** Rebind a cluster to a fresh buffer (plan replay). *)
