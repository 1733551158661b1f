(** Linear forms: the optimiser's canonical view of stencil bodies.

    After with-loop folding, the body of every MG with-loop part is a
    {e linear combination of array reads} plus a constant:

    {v const + Σ_k  c_k * src_k[map_k(iv)] v}

    This module extracts that form from an {!Ir.expr} (when it exists)
    and implements the paper's "four multiplications" optimisation: the
    27-point stencils of NAS-MG use only 4 distinct coefficients, so
    grouping reads by coefficient turns 27 multiplications per element
    into 4 (§5 of the paper).  Extraction happens after producers have
    been folded or materialised, so every read references a concrete
    array. *)

open Mg_ndarray

type read = { arr : Ndarray.t; map : Ixmap.t }

type t = { const : float; coeffs : float array; reads : read array }
(** [const + Σ_k coeffs.(k) * reads.(k)], the terms in reading order. *)

val of_expr : Ir.expr -> t option
(** [None] when the expression is not linear in its reads (products of
    reads, [sqrt], [Opaque], …) or still references an unforced node. *)

val iter_groups : factor:bool -> t -> (int -> int -> unit) -> unit
(** [iter_groups ~factor l f] calls [f g t] for every term [t] in
    coefficient-group order, where term [g] carries the group's
    coefficient (its first term).  With [factor], terms are grouped by
    coefficient value ({!same_coeff}): groups in
    first-occurrence order, terms in term order within a group, terms
    with coefficient [0.] dropped.  Without, every term is its own
    group, in term order, zeros included.  Reading order inside one
    element's computation is part of the optimisation's observable
    floating-point behaviour and is kept deterministic. *)

val same_coeff : float array -> int -> int -> bool
(** [same_coeff coeffs i j]: the equality coefficients group by,
    [compare coeffs.(i) coeffs.(j) = 0] ([-0.] is [0.], and every NaN
    is every other). *)

val num_terms : t -> int

val to_expr : t -> Ir.expr
(** Rebuild an equivalent expression (left-to-right sum) — used by
    tests to check extraction round-trips. *)
