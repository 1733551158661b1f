(** NAS-MG problem classes.

    The benchmark specification defines size classes by initial grid
    extent and iteration count; each official class also carries the
    published verification value for the final residual L2 norm.  The
    paper's experiments use classes W (64³, 40 iterations) and A (256³,
    4 iterations); classes [tiny] and [mini] are this repository's
    sub-benchmark sizes for tests and quick runs. *)

type smoother = Smoother_a | Smoother_b

type t = private {
  name : string;
  nx : int;  (** Initial grid extent (power of two); the grid is nx³. *)
  nit : int;  (** Number of V-cycle iterations. *)
  verify_value : float option;  (** Official rnm2, when NAS publishes one. *)
  smoother : smoother;
}

val class_s : t  (** 32³, 4 iterations. *)

val class_w : t  (** 64³, 40 iterations (the paper's "development" size, NPB 2.3). *)

val class_w128 : t  (** 128³, 4 iterations (NPB 3.x's class W — extra anchor). *)

val class_a : t  (** 256³, 4 iterations (the paper's benchmarking size). *)

val class_b : t  (** 256³, 20 iterations. *)

val class_c : t  (** 512³, 20 iterations. *)

val tiny : t  (** 8³, 4 iterations — unit-test size. *)

val mini : t  (** 16³, 4 iterations — quick-check size. *)

val all : t list

val of_string : string -> t option
(** Accepts "S", "W", "A", "B", "C", "tiny", "mini" (case-insensitive). *)

val levels : t -> int
(** [log2 nx]: the number of grid levels in the V-cycle. *)

val extent : t -> int
(** Extended array extent [nx + 2] (artificial boundary planes). *)

val smoother_coeffs : t -> Stencil.coeffs

val verify_epsilon : float
(** NAS's relative verification tolerance, 1e-8. *)

val make_custom : name:string -> nx:int -> nit:int -> t
(** A non-standard class (power-of-two [nx >= 4]) for experiments.
    @raise Invalid_argument otherwise. *)

val pp : Format.formatter -> t -> unit
