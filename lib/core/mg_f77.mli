(** Line-faithful OCaml port of the serial Fortran-77 reference
    implementation of NAS-MG ([mg.f]).

    This is the paper's primary baseline.  Every routine preserves the
    reference code's loop structure and floating-point evaluation
    order, including the hand optimisation the paper analyses in §5:
    partial sums of pairs of neighbour planes are kept in line buffers
    ([u1]/[u2], [x1]/[y1], [z1]/[z2]/[z3]) and shared between adjacent
    output elements, cutting the 27-point stencil to 4 multiplications
    and 12–20 additions per element.  All buffers are allocated once
    per run (static memory layout).

    Grids are cubes of extent [m = 2^k + 2] in C layout indexed
    [(i3, i2, i1)], [i1] contiguous; the Fortran arrays are
    column-major with [i1] contiguous, so memory order is identical.

    With spans on, every routine's loop nest records one span named
    [f77:<routine>] ({!Schedule.loop_span}); periodic-border updates
    are recorded separately as [f77:comm3]. *)

open Mg_ndarray

(** {1 Individual routines} (exposed for cross-implementation tests)

    All take cubes of extent [m]; [n = m - 2] is the interior extent. *)

val comm3 : Ndarray.t -> unit
val zero3 : Ndarray.t -> unit

val resid : u:Ndarray.t -> v:Ndarray.t -> r:Ndarray.t -> a:float array -> unit
(** [r <- v - A u] on the interior, then [comm3 r].  [v] and [r] may
    be the same array (the reference code relies on this). *)

val psinv : r:Ndarray.t -> u:Ndarray.t -> c:float array -> unit
(** [u <- u + C r] on the interior, then [comm3 u]. *)

val rprj3 : fine:Ndarray.t -> coarse:Ndarray.t -> unit
(** Project the fine residual onto the coarse grid (stencil P), then
    [comm3 coarse]. *)

val interp : coarse:Ndarray.t -> fine:Ndarray.t -> unit
(** Add the trilinear interpolation of [coarse] into [fine]. *)

(** {1 Whole-benchmark driver} *)

val routines : Schedule.routines
(** The four kernels, for use with {!Schedule}. *)

val run : Classes.t -> float * float
(** Fresh setup + iterate via {!Schedule.run}; returns
    [(rnm2, seconds)] where seconds covers exactly the iteration
    phase. *)

val residual_norms : Classes.t -> float array
(** Per-iteration residual L2 norms via {!Schedule.residual_norms}. *)
