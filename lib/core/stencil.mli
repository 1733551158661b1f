(** The 27-point stencils of NAS-MG.

    All four V-cycle operators — residual [A], smoothers [S(a)]/[S(b)],
    projection [P] and interpolation [Q] — are 27-point stencils whose
    coefficient depends only on the {e distance class} of the
    neighbour: the centre point (class 0), the 6 face neighbours
    (class 1), the 12 edge neighbours (class 2) and the 8 corner
    neighbours (class 3).  The benchmark specification provides the
    four coefficients of each operator; this module provides them plus
    the rank-generic expansion into with-loop bodies (class k = number
    of non-zero offset components). *)

open Mg_ndarray
open Mg_withloop

type coeffs = { c0 : float; c1 : float; c2 : float; c3 : float }

val a : coeffs
(** Residual operator: [-8/3, 0, 1/6, 1/12]. *)

val s_a : coeffs
(** Smoother for classes S, W and A: [-3/8, 1/32, -1/64, 0]. *)

val s_b : coeffs
(** Smoother for classes B and C: [-3/17, 1/33, -1/61, 0]. *)

val p : coeffs
(** Fine-to-coarse projection: [1/2, 1/4, 1/8, 1/16]. *)

val q : coeffs
(** Coarse-to-fine (trilinear) interpolation: [1, 1/2, 1/4, 1/8]. *)

val coeff : coeffs -> int -> float
(** Coefficient of a distance class; classes beyond 3 (rank > 3
    stencils) are zero. *)

val to_array : coeffs -> float array
(** [[| c0; c1; c2; c3 |]] — the layout of Fortran MG's [a]/[c]
    arrays. *)

val offsets : int -> (Shape.t * int) list
(** [offsets rank]: the [3^rank] neighbour offsets in row-major order
    (offset components in [{-1,0,1}]) paired with their distance
    class. *)

val body : coeffs -> Wl.t -> Wl.Expr.e
(** The with-loop body [Σ_d coeff(class d) * src[iv + d]] over all
    [3^rank] neighbours, in {!offsets} order.  Zero-coefficient terms
    are kept — eliminating them is the optimiser's job, as the paper
    describes (§5). *)

val apply_offsets : (Shape.t -> float) -> coeffs -> rank:int -> Shape.t -> float
(** Reference evaluator for tests: apply the stencil at one point given
    an element accessor. *)

val memo : (coeffs -> 'a) -> coeffs -> 'a
(** [memo f] makes [f c] once per coefficient set [c], on its first
    use, and returns it from then on (domain-safe): the MG programs'
    per-smoother {!Wl.staged} steppers. *)
