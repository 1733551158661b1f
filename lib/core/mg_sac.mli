(** The paper's high-level SAC implementation of NAS-MG (Figs. 4, 6
    and 7), transliterated onto this repository's with-loop DSL.

    Every function is rank-generic, exactly as in the paper: although
    NAS-MG is a 3-dimensional benchmark, [m_grid] and [v_cycle] work
    unchanged on grids of any dimension (exercised by the test suite
    on 1-D and 2-D problems).  All grids carry the artificial periodic
    border planes of Fig. 5, so extents are [2^k + 2] and the V-cycle
    recursion terminates at extent [2 + 2].

    The functions build delayed with-loop graphs; materialisation
    points (and hence the memory behaviour the paper discusses in §5)
    are decided by the optimiser — border-setup nodes are barriers,
    everything else folds according to the optimisation level. *)

open Mg_withloop

val relax_kernel : Stencil.coeffs -> Wl.t -> Wl.t
(** Fixed-boundary 27-point (3^rank-point) relaxation: a [modarray]
    whose interior is the stencil, borders passed through. *)

val resid : Stencil.coeffs -> Wl.t -> Wl.t
(** Fig. 6: periodic border setup + relaxation with the given residual
    coefficients — returns [A·u], {e not} [v - A·u]. *)

val smooth : Stencil.coeffs -> Wl.t -> Wl.t
(** Fig. 6 with smoother coefficients. *)

val fine2coarse : Wl.t -> Wl.t
(** Fig. 7: border setup, relax with [P], [condense 2], [embed] into
    the coarse extended grid. *)

val coarse2fine : Wl.t -> Wl.t
(** Fig. 7: border setup, [scatter 2], [take], relax with [Q]. *)

val v_cycle : smoother:Stencil.coeffs -> Wl.t -> Wl.t
(** Fig. 4's recursive [VCycle]. *)

val m_grid : smoother:Stencil.coeffs -> v:Wl.t -> iter:int -> Wl.t
(** Fig. 4's [MGrid]: [iter] iterations of
    [u <- u + VCycle (v - Resid u)] from [u = 0], materialising [u]
    once per iteration (the natural materialisation boundary).  The
    iteration is a {!Wl.staged} stepper with [v] as its parameter, one
    per smoother for the life of the program: an engine whose plan
    cache holds no tape for it records the first iteration on the
    per-force path, and every other iteration, of this solve and of
    later solves on the engine, replays the tape. *)

val run : Classes.t -> float * float
(** Whole benchmark on the with-loop engine at the current
    optimisation level and thread count: [(rnm2, seconds)] with
    seconds covering the iteration phase, input from {!Zran3} (into a
    pool buffer, recycled after the residual read) and the norm from
    {!Verify}. *)

val residual_norms : Classes.t -> float array
(** The residual L2 norm after each of the [nit] iterations; frozen
    bitwise by the golden-vector tests.  The last entry is {e not}
    {!run}'s [rnm2] bit for bit (class S: ...191a against ...190a):
    forcing each iteration's residual releases the iterate, so every
    later iteration recomputes it folded into its consumers, an
    association {!run}'s materialised iterates never take. *)
