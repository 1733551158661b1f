(** Stage 1 of the executor pipeline: part bodies to executable plans.

    A with-loop body is lowered either to its {!Linform} linear form —
    a constant plus coefficient-grouped array reads, the input of
    {!Cluster} — or, when no linear form exists, to a closure over the
    absolute index vector (the interpreter fallback).

    This stage also owns modarray lowering: the base pass-through of a
    dense modarray is expressed as explicit complement parts reading
    the base, so the fusion engine can fold cheap bases instead of
    copying them (the SAC view of modarray as a full-partition
    with-loop). *)

open Mg_ndarray

val closure_of : Ir.expr -> Shape.t -> float
(** Interpret a body as a function of the index vector.  All node
    reads must already be forced ({!Ir.Arr} leaves only).
    @raise Invalid_argument on an unforced {!Ir.Node} read. *)

type plan = Plin of Linform.t | Pfun of (Shape.t -> float)

val plan_of : Ir.expr -> plan
(** Linear form when one exists, closure otherwise. *)

(** {1 Modarray lowering} *)

val copy_complement : Ndarray.t -> Ndarray.t -> Shape.t -> Shape.t -> unit
(** Copy [base] into [out] everywhere outside the box [lb, ub). *)

(** {1 Ghost shells}

    The shell of an array is every element with a coordinate at [0] or
    at [extent - 1] on some axis: what the periodic-border parts write.
    A ghost-shell loan ({!Exec}) saves a base's shell into a packed side
    buffer of {!shell_size} elements before its borrower overwrites it,
    and restores it when the loan ends. *)

val shell_size : Shape.t -> int

val save_shell : Ndarray.t -> Ndarray.t -> unit
(** [save_shell arr side] packs [arr]'s shell into [side], in flat
    order. *)

val restore_shell : Ndarray.t -> Ndarray.t -> unit
(** [restore_shell arr side] writes a shell packed by {!save_shell}
    back into [arr]. *)

val interior_checksum : Ndarray.t -> int
(** A hash of the bits of every element outside the shell (the debug
    tripwire's check that a loan left the interior alone). *)

val complement_parts : Shape.t -> Ir.source -> Ir.part list -> Ir.part list
(** Explicit identity-read parts covering the complement of the parts'
    generator boxes within the shape — the lowered form of a dense
    modarray's base pass-through. *)
