(** The executor's buffer pool — SAC's reference-count-driven memory
    reuse, implemented as per-domain typed arenas.

    SAC's runtime reference counting frees intermediate arrays the
    moment their last consumer has executed; recycling those buffers
    avoids both allocator traffic and first-touch page faults.  Only
    buffers owned by node caches whose reference count reached zero
    (and which never escaped through [Wl.force]) enter the pool.

    Every domain owns its own arena (domain-local storage): a small
    set-associative cache of size-class slots, each slot a fixed-depth
    stack of free buffers of one element count.  The alloc/recycle
    fast path is therefore an array index on the calling domain —
    no mutex, no [Hashtbl].  A process-wide mutex exists only on cold
    paths (arena registration, {!stats}, {!clear}, {!assert_unpooled});
    those paths announce themselves with a ["mempool:lock"] span so
    profile traces can prove the fast path never locks.

    {2 Scopes}

    {!mark}/{!reset} bracket a region (typically one V-cycle
    iteration): every {!recycle} inside the scope is deferred — the
    dead buffer sits on a trail instead of re-entering its free slot —
    and [reset] flushes the whole trail to the free slots at once,
    O(length of the trail) with a single slot lookup per entry.
    Deferring availability to scope end guarantees a buffer freed
    mid-iteration is never handed back out within the same iteration,
    so executor recompute paths that still hold caches over it stay
    sound; the next iteration then allocates from the refilled slots
    instead of the OS.  Escaped results ([Wl.force]) and the
    loop-carried iterate ([Wl.materialize]) are never recycled at all,
    so scopes cannot reclaim them — under {!set_debug}, {!escape} and
    {!keep} additionally verify that invariant.

    {2 Pooling off}

    Every {!alloc}/{!recycle} takes the calling engine's [pooling]
    config flag ([Engine.config], the only pooling switch; [MG_POOLING]
    reaches it through [Engine.config_of_env]).  [~pooling:false]
    degrades the allocation to a plain [Ndarray.create_uninit] and
    makes the recycle a no-op — the A/B baseline for ablation.
    In-place reuse ([Plan.OReuse]) is orthogonal and stays active. *)

open Mg_ndarray

val alloc : pooling:bool -> Shape.t -> Ndarray.t
(** A (possibly recycled, uninitialised) array of the given shape,
    drawn from the calling domain's arena when [pooling] holds, fresh
    otherwise. *)

val recycle : pooling:bool -> Ndarray.t -> unit
(** Return a dead buffer to the calling domain's arena (no-op unless
    [pooling]).  The caller must guarantee no live reference to the
    array remains; at most {!max_per_class} buffers are kept per size
    class.  Inside an active scope this is deferred: the buffer sits
    on the scope trail and {!reset} reclaims it. *)

val clear : unit -> unit
(** Drop every pooled buffer in every arena and zero the {!stats}
    (remote arenas flush lazily, on their owner's next pool
    operation).  [reused] is zeroed by recording the
    [mempool.pool_hits] total as a baseline: the metric families are
    never lowered. *)

val stats : unit -> int * int
(** [(reused, recycled)] since the last {!clear}, race-free
    (diagnostics). *)

type snapshot = {
  reused : int;  (** allocations served from a free slot ([mempool.pool_hits]) *)
  recycled : int;  (** buffers returned to a free slot (incl. by reset) *)
  bytes_live : int;  (** bytes currently out of the pool's free slots *)
  bytes_live_hw : int;  (** high-water of [bytes_live] since {!clear} *)
  arenas : int;  (** registered per-domain arenas *)
}

val snapshot : unit -> snapshot
(** Aggregated per-arena statistics (cold path, takes the registry
    lock). *)

val max_per_class : int
(** Free-stack depth per size class. *)

(** {1 Scopes} *)

val mark : ?owner:int -> unit -> unit
(** Open a scope on the calling domain's arena.  [?owner] tags the
    mark with the opening engine's id (scopes are keyed engine×domain);
    anonymous when omitted. *)

val reset : ?owner:int -> unit -> unit
(** Close the innermost scope: flush every {!recycle} deferred since
    the matching {!mark} into the free slots (under {!set_debug},
    poisoning each with NaNs first).  No-op without an open scope.
    Under {!set_debug}, fails if both the mark's recorded owner and
    [?owner] are given and differ — the tripwire for two engines
    interleaving scopes on one domain. *)

val with_scope : ?owner:int -> (unit -> 'a) -> 'a
(** [mark]; run; [reset] (also on exceptions). *)

val scope_depth : unit -> int
(** Open scopes on the calling domain's arena. *)

val escape : Ndarray.t -> unit
(** The array left the engine ([Wl.force]): ownership passes to the
    caller and the GC.  Debug-only tripwire — fails if the buffer
    already sits in a free slot or on a scope trail (the pool could
    hand it out while the caller reads it); no-op otherwise. *)

val keep : Ndarray.t -> unit
(** The array survives the current scope pool-owned ([Wl.materialize]'s
    loop-carried iterate).  Debug-only tripwire like {!escape}. *)

(** {1 Diagnostics}

    Allocation events are the sharded metric families
    [mempool.pool_hits] (served from a free slot), [mempool.alloc_bytes]
    (bytes drawn from the OS allocator) and [mempool.reuse_hits]: each
    event is one write to the current {!Mg_obs.Scope}'s engine cell,
    or to the unlabelled cell outside any solve. *)

val pool_hits : Mg_obs.Metrics.counter Mg_obs.Scope.family
val reuse_hits : Mg_obs.Metrics.counter Mg_obs.Scope.family
val alloc_bytes : Mg_obs.Metrics.counter Mg_obs.Scope.family

val note_reuse : unit -> unit
(** Record one in-place aliasing event ([mempool.reuse_hits]): the
    executor produced a result directly into a dead operand's buffer
    instead of drawing from the pool. *)

val set_debug : bool -> unit
(** Enable the aliasing guards: [recycle] fails on a buffer already in
    its free slot (double release), the executor cross-checks every
    in-place aliasing decision with {!assert_unpooled} and a
    structural hazard re-scan of the compiled parts, and {!reset}
    poisons reclaimed buffers with NaNs so a read through a buffer
    that escaped its scope fails loudly in any norm. *)

val get_debug : unit -> bool

val assert_unpooled : Ndarray.buffer -> ctx:string -> unit
(** Fail if [b] currently sits in a free slot of any arena — i.e. a
    buffer about to be written through is simultaneously available for
    reallocation.  [ctx] names the caller in the error message. *)
