(** The V-cycle schedule of the reference NAS-MG codes, shared by the
    low-level ports ({!Mg_f77}, {!Mg_c}): project the residual to the
    coarsest grid, smooth there, then interpolate / re-compute the
    residual / smooth on the way back up ([mg3P] of [mg.f]), embedded
    in the benchmark's iteration loop.  Parameterised over the four
    stencil routines so that different implementations of the kernels
    share one schedule. *)

open Mg_ndarray

type routines = {
  impl_name : string;
  resid : u:Ndarray.t -> v:Ndarray.t -> r:Ndarray.t -> a:float array -> unit;
      (** [r <- v - A u] (interior) + periodic border update of [r];
          must accept [v == r]. *)
  psinv : r:Ndarray.t -> u:Ndarray.t -> c:float array -> unit;
      (** [u <- u + C r] (interior) + border update of [u]. *)
  rprj3 : fine:Ndarray.t -> coarse:Ndarray.t -> unit;
      (** Fine-to-coarse projection + border update of [coarse]. *)
  interp : coarse:Ndarray.t -> fine:Ndarray.t -> unit;
      (** Add trilinear interpolation of [coarse] into [fine]. *)
}

val loop_span : Mg_obs.Span.timer -> string -> surface:bool -> Ndarray.t -> unit
(** [loop_span sp tag ~surface g] closes the span [sp] (opened by
    {!Mg_obs.Span.start} before a routine's loop nest) as the
    operation [tag] over the cube [g]: its interior, or with [surface]
    the six faces a border update writes.  The span carries the
    operation's [elements] and its [extent], the interior extent — it
    is one {!Mg_smp.Smp_sim.op} of the solve and one row's worth of
    the profile report's per-level table.  A dead timer costs one
    comparison. *)

type state = {
  cls : Classes.t;
  u : Ndarray.t array;  (** Per level [1 .. lt]; index 0 unused. *)
  r : Ndarray.t array;
  v : Ndarray.t;
}

val setup : Classes.t -> state
(** Allocate all levels ([u] zeroed) and generate [v] with {!Zran3}. *)

val mg3p : routines -> state -> unit
(** One V-cycle. *)

val iterate : routines -> state -> unit
(** Initial residual, then [nit] × (V-cycle; residual). *)

val final_norm : state -> float * float

val run : routines -> Classes.t -> float * float
(** Fresh setup + timed {!iterate}; [(rnm2, seconds)]. *)

val residual_norms : routines -> Classes.t -> float array
(** Fresh setup + {!iterate}, recording the residual L2 norm after
    each iteration ([nit] entries; the last equals {!run}'s [rnm2]).
    The golden-vector tests freeze these bitwise. *)
