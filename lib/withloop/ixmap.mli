(** Component-wise affine index maps with exact division.

    The index expressions appearing in the paper's array library —
    [a[str * iv]] (condense), [a[iv / str]] (scatter), [a[iv - pos]]
    (embed), [a[iv + off]] (stencils) — are all of the per-axis form

    {v iv_j  |->  (scale_j * iv_j + offset_j) / div_j v}

    with non-negative [scale], arbitrary [offset] and positive [div],
    where the division is exact on every index the enclosing generator
    produces.  Keeping index maps in this closed form is what makes
    with-loop folding a pure substitution: composing two maps yields
    another map of the same form, and the compiled executor turns any
    such map into incremental pointer arithmetic. *)

open Mg_ndarray

type t = private { scale : Shape.t; offset : Shape.t; div : Shape.t }

val make : ?scale:Shape.t -> ?offset:Shape.t -> ?div:Shape.t -> int -> t
(** [make rank] is the identity; optional components override.
    @raise Invalid_argument on rank mismatch, [scale < 0] or
    [div < 1]. *)

val identity : int -> t
val offset : Shape.t -> t  (** [iv + d] — stencil neighbour access. *)

val scale : int -> int -> t  (** [scale rank k]: [iv * k] — condense. *)

val divide : int -> int -> t  (** [divide rank k]: [iv / k] — scatter. *)

val rank : t -> int
val is_identity : t -> bool
val has_division : t -> bool
val is_pure_offset : t -> bool  (** scale 1, div 1. *)

val apply : t -> Shape.t -> Shape.t
(** Evaluate the map (truncating division — callers that require
    exactness must check {!exact_on} first). *)

val exact_on : t -> Generator.t -> bool
(** Is the division exact on every index of the generator?  Decided
    per axis from lb/step/width without enumeration. *)

val compose : outer:t -> inner:t -> t
(** [compose ~outer ~inner] maps [iv] to [outer (inner iv)].

    Precondition: the inner division must be exact on every index the
    composite is later applied to (the fusion engine checks
    [exact_on inner gen] before composing).  Under that precondition,
    exactness of the composite on a generator is equivalent to
    exactness of the outer map on the inner image, so a single
    [exact_on] check of the result suffices. *)

val apply_axis : t -> int -> int -> int
(** [apply_axis m j x]: axis [j] of the map at coordinate [x]
    (truncating division — exact where the map is {!exact_on} the
    generator [x] comes from).  The image of an ascending progression
    runs from [apply_axis] of its first to [apply_axis] of its last
    element. *)

val axis_stride : t -> int -> int -> int
(** [axis_stride m j step]: the step of that image for an input step
    [step] on axis [j] ([0 <= result]; exact under the same
    condition). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
