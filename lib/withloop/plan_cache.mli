(** Persistent plan cache for the with-loop executor.

    sac2c pays for fusion, coefficient factoring and layout compilation
    once, at compile time; this runtime engine used to pay for them at
    every {!Exec.force}.  The plan cache closes that gap: a forced graph
    is reduced to a structural key — shapes, generators, index maps,
    coefficient values, reference counts and the optimisation
    configuration, but {e not} buffer identities — and the compiled
    cluster layout is stored under that key.  The second and later
    forces of an identical graph shape skip the whole optimisation
    pipeline and jump straight to the inner loops with fresh buffer
    bindings.

    The key walk also produces the graph's {e bindings}: the ordered
    array of distinct sources (leaf arrays and producer nodes) the key
    refers to by ordinal.  A cached plan references sources only by
    binding slot, so replaying it against a structurally identical graph
    rebinds every cluster to that graph's own buffers. *)

type stats = {
  hits : int;  (** Forces served by a cached plan. *)
  misses : int;  (** Forces that compiled and stored a new plan. *)
  evictions : int;  (** Plans dropped by the LRU bound. *)
  uncacheable : int;  (** Forces that could not be keyed or replayed. *)
  saved_seconds : float;  (** Sum of the compile times hits skipped. *)
}

(** {1 Keyed store}

    Each instance belongs to one engine and carries its own statistics.
    All operations are serialised by an internal per-instance mutex, so
    one cache may be shared by engines driven from different domains
    (the lock is uncontended in the one-engine-per-domain regime). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** LRU-bounded map from structural keys to plans (default capacity
    512 — a V-cycle needs a few plans per level per operator). *)

val find : 'a t -> string -> 'a option
val add : 'a t -> string -> 'a -> unit
val clear : 'a t -> unit
(** Drop every entry (statistics are left untouched — use
    {!reset_stats}). *)

val length : 'a t -> int

(** {1 Structural keys} *)

val key_of_graph : env:string -> fold:bool -> Ir.node -> (string * Ir.source array) option
(** [key_of_graph ~env ~fold n] serialises the graph reachable from [n]
    into a structural key, prefixed by [env] (the optimisation
    configuration fingerprint).  [fold] must match the fusion
    configuration: it bounds the walk to the nodes fusion can actually
    substitute — everything fusion would materialise is keyed as an
    opaque leaf instead of being recursed into.  Returns the key
    together with the binding array: element [i] is the source the key
    names by ordinal [i] (ordinal 0 is [n] itself).  Two graphs get
    equal keys iff the executor would compile them identically modulo
    buffer addresses.  [None] when the walk encounters an {!Ir.Opaque}
    body (opaque closures have no structural identity). *)

(** {1 Statistics}

    Per-instance counters, plus a process-wide aggregate mirrored into
    {!Mg_obs.Metrics} ([plan_cache.*]) so caches appear in metric dumps
    without separate plumbing.  Every [note_*] bumps both. *)

val stats : 'a t -> stats
val reset_stats : 'a t -> unit

val note_hit : 'a t -> saved:float -> unit
val note_miss : 'a t -> unit
val note_uncacheable : 'a t -> unit
