(** The "C port" baseline (modelling the RWCP/Omni OpenMP code the
    paper compares against).

    The paper's C implementation is directly derived from the Fortran
    reference; both apply the 4-distinct-coefficients factoring, but
    the port is measurably slower (14–23 %) for reasons the paper
    leaves open.  We model the port as the {e straightforward
    translation} it is: the same schedule and the same factored
    stencils, but each element recomputes its full neighbour sums
    instead of sharing the Fortran code's partial-sum line buffers
    (the optimisation §5 singles out as the reference code's edge) —
    see DESIGN.md §2 for this substitution.

    With spans on, every routine's loop nest records one span named
    [c:<routine>] ({!Schedule.loop_span}); the OpenMP machine model of
    {!Mg_smp} is applied to these operations. *)

open Mg_ndarray

val comm3 : Ndarray.t -> unit
val resid : u:Ndarray.t -> v:Ndarray.t -> r:Ndarray.t -> a:float array -> unit
val psinv : r:Ndarray.t -> u:Ndarray.t -> c:float array -> unit
val rprj3 : fine:Ndarray.t -> coarse:Ndarray.t -> unit
val interp : coarse:Ndarray.t -> fine:Ndarray.t -> unit

val routines : Schedule.routines
val run : Classes.t -> float * float

val residual_norms : Classes.t -> float array
(** Per-iteration residual L2 norms via {!Schedule.residual_norms}. *)
