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

    Each instance belongs to one engine, or is shared by serving
    siblings; it holds plans (and stepper tapes, see
    {!Tape.cache_entry}) only, no statistics.  All operations are
    serialised by an internal per-instance mutex, so one cache may be
    shared by engines driven from different domains (the lock is
    uncontended in the one-engine-per-domain regime). *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** LRU-bounded map from structural keys to plans (default capacity
    512 — a V-cycle needs a few plans per level per operator). *)

val find : 'a t -> string -> 'a option
val add : 'a t -> shards:Mg_obs.Scope.shards -> string -> 'a -> unit
(** Store a plan, evicting the least recently used one when full; an
    eviction counts in [shards] (the storing engine's table). *)

val exists : 'a t -> ('a -> bool) -> bool
(** Whether some entry satisfies the predicate (a scan: cold paths
    only). *)

val clear : 'a t -> unit
(** Drop every entry. *)

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

    Sharded metric families ([plan_cache.hits], [.misses],
    [.evictions], [.uncacheable], [.saved_seconds]; see
    {!Mg_obs.Scope}): every [note_*] is one write to the given engine
    table's cell, and the unlabelled [plan_cache.*] reads are the
    process totals derived from those cells. *)

val hits : Mg_obs.Metrics.counter Mg_obs.Scope.family
val misses : Mg_obs.Metrics.counter Mg_obs.Scope.family

val stats : Mg_obs.Scope.shards -> stats
(** The table's cumulative counts (never reset; [Engine.cache_stats]
    subtracts the baseline its [cache_clear] recorded). *)

val note_hit : Mg_obs.Scope.shards -> saved:float -> unit
val note_miss : Mg_obs.Scope.shards -> unit
val note_uncacheable : Mg_obs.Scope.shards -> unit
