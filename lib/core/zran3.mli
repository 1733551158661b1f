(** The NAS-MG input field generator ([zran3] of the reference code).

    The right-hand side [v] of the discrete Poisson problem is zero
    except at twenty interior grid points: +1 at the positions of the
    ten largest and -1 at the positions of the ten smallest values of a
    pseudo-random field drawn with the NAS generator ({!Mg_nasrand}).
    Positions therefore depend on the exact generator sequence, which
    is what ties our runs to the official verification norms.

    Grids are cubes of extent [n + 2] in C (row-major) layout indexed
    [(i3, i2, i1)] with [i1] contiguous — the mirror image of the
    Fortran arrays, preserving memory order and generation order.
    Interior cells are [1 .. n] on each axis; planes 0 and [n+1] are
    the artificial periodic border. *)

open Mg_ndarray

val generate : n:int -> Ndarray.t
(** The charge field for an [n]³ grid (array extent [(n+2)]³),
    including the periodic border update. *)

val generate_into : Ndarray.t -> n:int -> unit
(** {!generate} into the given [(n+2)]³ array, whose contents need not
    be initialised ([Mg_sac.run] draws it from the pool).
    @raise Invalid_argument on another shape. *)

val generate_compact : n:int -> Ndarray.t
(** The same charges on a border-free [n]³ array — the input of the
    direct-periodic implementation ({!Mg_periodic}), which realises
    §7's "future work" of dropping the artificial border elements.
    Equals the interior of {!generate}. *)

val random_field : n:int -> Ndarray.t
(** The underlying pseudo-random interior field (before the ±1
    selection) — exposed for tests. *)

val extremes : Ndarray.t -> n:int -> count:int -> (int * int * int) list * (int * int * int) list
(** Positions [(i3, i2, i1)] of the [count] largest and [count]
    smallest interior values (each list in increasing value order).
    Assumes distinct values, which holds for the NAS generator. *)
