(** Stage 5 of the executor pipeline: executing a force's compiled
    parts into its output buffer.

    A part at least [par_threshold] elements large, on a pool of more
    than one domain, is cut into one static axis-0 slab per domain and
    the slabs run on the pool; every other part runs whole on the
    calling domain.  Each element is written once whatever the cut, so
    outputs are bitwise identical across pool sizes. *)

open Mg_ndarray

(** Per-force execution context. *)
type ctx = {
  pool : Mg_smp.Domain_pool.t;
  par_threshold : int;  (** Parts below this cardinality stay sequential. *)
}

val run_parts : ctx -> Plan.compiled list -> out:Ndarray.t -> unit
(** Execute the compiled parts of one force into [out].  Parts run in
    order; the slabs of one part may run concurrently, each under a
    ["backend:piece"] span. *)
