(** Periodic boundary handling by artificial border elements (§4,
    Fig. 5 of the paper).

    Grids carry one extra plane on each side of every axis; before a
    relaxation step, each artificial plane is filled with a copy of the
    opposite {e interior} plane, so that a fixed-boundary stencil sweep
    then realises periodic boundary conditions.

    [setup_periodic_border] updates all [3^rank - 1] border regions —
    faces, edges and corners — in one with-loop whose parts read the
    argument's interior at constant offsets (corner regions wrap on
    several axes at once, which is what the sequential axis-by-axis
    copies of Fortran MG's [comm3] achieve).  The node is a fusion
    {e barrier}: like the paper's benchmark, border arrays are always
    materialised. *)

open Mg_withloop

val setup_periodic_border : Wl.t -> Wl.t
(** @raise Invalid_argument if any extent is smaller than 3 (an
    interior is required). *)

val wrap_offset : extent:int -> sign:int -> int
(** The source offset for a border plane: [extent - 2] for the low
    face, [-(extent - 2)] for the high face, [0] inside. *)
