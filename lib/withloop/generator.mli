(** SAC with-loop generators: rectangular, optionally strided index sets.

    A generator denotes the index-vector set of the SAC construct

    {v ( lb <= iv < ub  step s  width w ) v}

    i.e. [{ iv | lb_j <= iv_j < ub_j  /\  (iv_j - lb_j) mod s_j < w_j }]
    (Fig. 1 of the paper).  Omitted [step]/[width] default to 1, giving
    a dense rectangle. *)

open Mg_ndarray

type t = private {
  lb : Shape.t;
  ub : Shape.t;
  step : Shape.t;
  width : Shape.t;
}

val make : ?step:Shape.t -> ?width:Shape.t -> lb:Shape.t -> ub:Shape.t -> unit -> t
(** @raise Invalid_argument on rank mismatch, [step <= 0], [width <= 0]
    or [width > step]. *)

val full : Shape.t -> t
(** All indices of an array of the given shape: [0 <= iv < shp]. *)

val interior : Shape.t -> int -> t
(** [interior shp k]: indices at distance [>= k] from every face —
    the index set of a fixed-boundary relaxation step. *)

val face : Shape.t -> axis:int -> pos:int -> t
(** The hyperplane [iv_axis = pos] of the given shape (all other axes
    full) — the index set of one boundary face. *)

val rank : t -> int
val is_dense : t -> bool  (** All steps are 1. *)

val mem : t -> Shape.t -> bool
val cardinal : t -> int
val is_empty : t -> bool

val axis_positions : t -> int -> int array
(** All valid coordinates along one axis, ascending. *)

val axis_count : t -> int -> int
(** [Array.length (axis_positions g j)], in closed form. *)

val axis_position : t -> int -> int -> int
(** [axis_position g j k] is [(axis_positions g j).(k)] for
    [0 <= k < axis_count g j], in closed form: the analyses that need
    an axis's first, second or last coordinate build no array. *)

val counts : t -> int array
(** Number of valid coordinates per axis ([cardinal] is their product). *)

val iter : t -> (Shape.t -> unit) -> unit
(** Row-major iteration; the index vector passed to the callback is
    reused between calls. *)

val to_list : t -> Shape.t list
(** Fresh index vectors, row-major — test helper, not for hot paths. *)

val restrict_axis : t -> axis:int -> lo:int -> hi:int -> t option
(** Intersect with the band [lo <= iv_axis < hi]; [None] if empty.
    Keeps step/width, adjusting [lb] up to the next in-set coordinate.
    Only supported for width-1 axes when the axis has a step > 1. *)

val refine_axis_mod : t -> axis:int -> modulus:int -> residue:int -> t option
(** Intersect with [{ iv | iv_axis mod modulus = residue }].  Requires
    the axis to currently have width 1 and a step dividing or divisible
    by a common multiple; the result's step is [lcm step modulus].
    [None] if the intersection is empty. *)

val split_axis : t -> axis:int -> pieces:int -> t list
(** Partition the generator into up to [pieces] generators with
    contiguous, disjoint coordinate bands along [axis] covering exactly
    the original set — the unit of work distribution for the domain
    pool. *)

val disjoint_union_is : t list -> t -> bool
(** Test-oracle: do the given generators partition the index set of the
    second argument exactly (each index covered exactly once)?  Works
    by enumeration — small shapes only. *)

val pp : Format.formatter -> t -> unit
