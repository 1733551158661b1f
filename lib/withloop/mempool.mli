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

    {2 Recycling at the last use}

    A buffer returns to its free slot the moment the executor runs its
    last consumer — the step that also clears the node's cache — so
    the next allocation of that size, in the same V-cycle or the next,
    takes it instead of the OS.  No region bracket is needed around an
    iteration.  Escaped results ([Wl.force]) and the loop-carried
    iterate ([Wl.materialize]) are never recycled at all; under
    {!set_debug}, {!escape} and {!keep} verify that invariant, and
    {!recycle} poisons each buffer with NaNs before it enters its slot,
    so a read after the last use fails at once.

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
    class.  Under {!set_debug} the buffer is NaN-poisoned first. *)

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
  recycled : int;  (** buffers returned to a free slot *)
  bytes_live : int;  (** bytes currently out of the pool's free slots *)
  bytes_live_hw : int;  (** high-water of [bytes_live] since {!clear} *)
  arenas : int;  (** registered per-domain arenas *)
}

val snapshot : unit -> snapshot
(** Aggregated per-arena statistics (cold path, takes the registry
    lock). *)

val max_per_class : int
(** Free-stack depth per size class. *)

val escape : Ndarray.t -> unit
(** The array left the engine ([Wl.force]): ownership passes to the
    caller and the GC.  Debug-only tripwire — fails if the buffer
    already sits in a free slot (the pool could hand it out while the
    caller reads it); no-op otherwise. *)

val keep : Ndarray.t -> unit
(** The array stays live and pool-owned ([Wl.materialize]'s
    loop-carried iterate): it is recycled once its last registered
    consumer runs.  Debug-only tripwire like {!escape}. *)

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
    structural hazard re-scan of the compiled parts, and [recycle]
    poisons each buffer with NaNs before it enters its slot, so a read
    after the last use fails loudly in any norm. *)

val get_debug : unit -> bool

val assert_unpooled : Ndarray.buffer -> ctx:string -> unit
(** Fail if [b] currently sits in a free slot of any arena — i.e. a
    buffer about to be written through is simultaneously available for
    reallocation.  [ctx] names the caller in the error message. *)
