(** Direct periodic relaxation — the paper's §7 "future work",
    implemented.

    The benchmark implementation of §4 realises periodic boundary
    conditions through artificial border elements (Fig. 5): every grid
    carries an extra plane per face that must be refreshed before each
    relaxation.  The paper closes by asking for "a direct
    implementation of relaxation with periodic boundary conditions that
    makes artificial boundary elements obsolete", both to save the
    border-update overhead and to bring the program even closer to the
    mathematical specification.

    This module is that implementation.  Grids are bare [n]³ arrays
    ([n = 2^k]) and a relaxation step is literally the mathematical
    definition

    {v  (C u)(x) = Σ_d  c_|d| · u((x + d) mod n)  v}

    written as a sum of {!Mg_arraylib.Select.rotate}d grids.  Every
    rotation is an affine selection, so the with-loop optimiser folds
    the whole sum into one with-loop whose parts are the wrap regions —
    the grid mappings lose their [embed]/[take] fix-ups, and the
    V-cycle recursion bottoms out at extent 2 instead of 2+2.

    Numerically this computes the same operators as {!Mg_sac} (and
    verifies against the official NPB norms); the benchmark binaries
    compare the two as ablation E8. *)

open Mg_withloop

val relax : Stencil.coeffs -> Wl.t -> Wl.t
(** The 3^rank-point periodic stencil as a folded sum of rotations. *)

val resid : Wl.t -> Wl.t  (** [relax] with the residual coefficients A. *)

val smooth : Stencil.coeffs -> Wl.t -> Wl.t

val fine2coarse : Wl.t -> Wl.t
(** [condense 2 (relax P r)] — no [embed] needed on bare grids. *)

val coarse2fine : Wl.t -> Wl.t
(** [relax Q (scatter 2 zn)] — no [take] needed on bare grids. *)

val v_cycle : smoother:Stencil.coeffs -> Wl.t -> Wl.t
val m_grid : smoother:Stencil.coeffs -> v:Wl.t -> iter:int -> Wl.t
(** [Mg_sac.m_grid]'s loop on bare grids, through a program-long
    {!Wl.staged} stepper per smoother as well. *)

val run : Classes.t -> float * float
(** Whole benchmark on bare periodic grids: [(rnm2, seconds)], input
    from {!Zran3.generate_compact}, same verification norm. *)
