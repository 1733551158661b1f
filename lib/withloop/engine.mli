(** Explicit engine contexts — the reified form of what used to be
    {!Wl}'s module globals.

    An {!t} bundles one complete engine: the optimisation
    configuration ({!config}), a private {!Plan_cache} instance, an
    execution-pool handle, and the engine's metric shards.  Threading an engine through a solve
    (see [Driver.run ?engine] and {!with_current}) replaces mutating
    process globals, so two engines with different settings can solve
    concurrently from separate domains — the prerequisite for the
    multi-tenant solver service.

    {!config} is the only way to configure the executor — the
    analogue of sac2c's command-line switches, Fig. 11's O0–O3
    ablation being a choice among them.  A config is fixed for the
    life of its engine: reconfigure by {!create}-ing or {!derive}-ing
    another, or scope a derived one with [Wl.with_config]. *)

type opt_level =
  | O0  (** Materialise everything; one multiplication per stencil term. *)
  | O1  (** + coefficient factoring (27 mults → 4 for NAS-MG stencils). *)
  | O2  (** + with-loop folding, staged kernels (cfun), buffer reuse. *)
  | O3  (** + residue-class generator splitting for strided producers. *)

type config = {
  opt_level : opt_level;
  threads : int;  (** Execution-pool size ([>= 1]; 1 = sequential). *)
  par_threshold : int;  (** Minimum part cardinality for parallel execution. *)
  split_threshold : int;
      (** Minimum part cardinality for generator splitting during
          folding; smaller consumers materialise their producers. *)
  line_buffers : bool;
      (** Line-buffered box-stencil kernels: per-row plane sums
          computed once and reused across the inner loop. *)
  cfun : bool;  (** Staged kernel compilation (effective at O2+). *)
  native : bool;
      (** AOT native backend: emit C for staged kernels, compile to
          shared objects, [dlopen] at solve time (effective at O2+;
          degrades to [cfun]/generic when the toolchain refuses). *)
  native_cache : string option;
      (** Shared-object cache directory for the native backend;
          [None] resolves to ["_mg_native"] at settings time. *)
  reuse : bool;
      (** Buffer-reuse analysis (effective at O2+): a sweep whose dead
          operand is read only by identity writes through that
          operand's buffer — SAC's update-in-place. *)
  pooling : bool;
      (** Draw buffers from the {!Mempool} arenas and recycle dead
          intermediates into them; off allocates every buffer
          fresh.  Orthogonal to [reuse]. *)
  observe : bool;
      (** Engine-level observation gate: [false] keeps this engine's
          forces out of traces/spans even when the process-wide
          switches are on. *)
  sched : Mg_smp.Sched_policy.t;  (** Chunk shape for parallel with-loop parts. *)
  backend : Backend.t;
      (** Piece-scheduling backend: the real domain pool, or the
          sequential {!Backend.Smp_sim} split for the SMP cost model. *)
}

val default_config : config
(** The literal defaults (O3, 1 thread, pooling on, observation gate
    open) — independent of the environment. *)

val config_of_env : ?getenv:(string -> string option) -> unit -> config
(** {!default_config} overridden by the environment: [MG_PROCS]
    (thread count, [>= 1]), [MG_NATIVE], [MG_REUSE], [MG_POOLING],
    [MG_OBSERVE] (booleans: [0]/[off]/[false]/[no] and
    [1]/[on]/[true]/[yes]), and [MG_NATIVE_CACHE] (the AOT
    shared-object cache directory; blank is ignored).  These are the
    only environment variables that configure an engine; {!Native}
    also reads the toolchain settings [MG_CC] and [MG_NATIVE_CACHE_MB]
    when it compiles.  Pass [~getenv] to test the parsing
    hermetically. *)

(** {1 Kernel tiers} *)

(** The tier for rank-3 bodies no fixed kernel recognises: the
    interpreted generic nest, staged {!Cfun} closures, or AOT
    {!Native} shared objects.  A choice over the [cfun]/[native]
    config flags, shared by every command-line [--kernels] switch and
    [Mg_serve]. *)
type tier = Generic | Cfun | Native

val tiers : tier list
val tier_to_string : tier -> string

val tier_of_string : string -> tier option
(** The inverse of {!tier_to_string}, case-insensitive. *)

val with_tier : tier -> config -> config
(** Set the [cfun]/[native] flags for a tier.  [Native] keeps [cfun]
    on underneath as its degradation target; [Generic] switches both
    off. *)

(** {1 Engines} *)

type t
(** One engine: a config, a private plan cache, an execution pool. *)

val create : ?config:config -> ?share_cache:t -> unit -> t
(** A fresh engine with its own (lazily spawned, owned) domain pool.
    Default config: {!config_of_env}.  Registered in {!all} until
    {!shutdown}.

    By default the engine also gets its own {!Plan_cache};
    [~share_cache:parent] instead aliases [parent]'s cache — the
    multi-tenant serving combination {!derive} cannot express: plans
    compiled by any sibling replay for all of them (the cache is
    internally mutexed and keys carry the optimisation fingerprint,
    so cross-domain, cross-config sharing is sound) while every
    sibling still owns a private execution pool.  {!cache_stats} stays
    per engine: each sibling counts the hits and misses of its own
    forces, so the shared cache's statistics are the sum over the
    siblings.  Shutting down a sibling never drops the shared cache. *)

val derive : t -> (config -> config) -> t
(** A cheap reconfiguration: shares the parent's plan cache (keys
    carry the optimisation fingerprint, so configs never collide),
    execution pool, {!label} and metric shards, with its own config.
    Not registered; nothing to shut down. *)

val shutdown : t -> unit
(** Shut down an {!create}d engine's owned pool, drop it from {!all}
    and retire its metric shards: their counts fold into the family
    totals and their series leave the registry
    ({!Mg_obs.Scope.retire}).  The engine and its derivations must
    not be used afterwards. *)

val default : unit -> t
(** The process-default engine (created on first use from
    {!config_of_env}; executes on the global domain pool). *)

val current : unit -> t
(** The calling domain's dynamically-bound engine ({!with_current}),
    falling back to {!default}.  This is what [Wl.force] consults —
    the only engine lookup on the solve hot path. *)

val with_current : t -> (unit -> 'a) -> 'a
(** Run [f] with [e] as the calling domain's current engine
    (restored afterwards, exceptions included).  Domain-local: solves
    on other domains are unaffected. *)

val label : t -> int
(** The engine's root attribution id: unique per {!create}d engine,
    the parent's label for {!derive}d ones.  This is the value behind
    the [engine] metric label and flight-recorder [engine_id] — so a
    root engine and its per-solve derivations share one metric shard
    instead of minting unbounded label cardinality. *)

val config_fingerprint : t -> string
(** A compact human-readable digest of the engine's current config
    (opt level, threads, feature flags, scheduling policy, backend)
    for flight-recorder records. *)

val new_scope : ?tenant:string -> t -> Mg_obs.Scope.t
(** A fresh per-solve trace context attributed to this engine's
    {!label}, carrying the engine's shard table (interned once, at
    {!create}, for every family declared through
    {!Mg_obs.Scope.counter_family} and its siblings) and its
    [observe] setting.  [Driver.run] installs one per solve with
    [Mg_obs.Scope.with_scope]. *)

val flight_log : t -> Mg_obs.Flight.record list
(** Flight-recorder records attributed to this engine's {!label},
    oldest first. *)

val config : t -> config

val settings : t -> Exec.settings
(** The executor settings for the engine's current config: the
    opt-level feature table applied, the engine's cache and pool
    handles included. *)

val pool : t -> unit -> Mg_smp.Domain_pool.t
(** The engine's execution pool, created/resized on demand to
    [config.threads].  {!create}d engines own theirs; {!default} (and
    engines derived from it) resize the process-global pool. *)

(** {1 Per-engine plan cache} *)

val cache : t -> Plan.cache_entry Plan_cache.t

val cache_stats : t -> Plan_cache.stats
(** The plan-cache events of this engine's forces (its derivations'
    included) since {!create} or the last {!cache_clear}: a read of
    the engine's [plan_cache.*] shards. *)

val cache_length : t -> int

val cache_clear : t -> unit
(** Drop the engine's cached plans, zero its {!cache_stats} (by
    recording a baseline; the metric families are never lowered), and
    release the (process-wide) pooled buffers. *)

(** {1 Introspection} *)

val all : unit -> t list
(** Every {!create}d (and the default) engine still alive, in creation
    order — the bench harness reports per-engine cache stats from
    this. *)

val opt_level_of_string : string -> opt_level option
val opt_level_to_string : opt_level -> string
