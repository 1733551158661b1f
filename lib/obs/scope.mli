(** Per-solve trace contexts.

    A scope is created by [Driver.run] for each solve (via
    [Engine.new_scope]) and installed domain-locally for the solve's
    duration; [Mg_smp.Domain_pool] propagates the submitter's scope to
    its workers, so every domain touching the solve sees the same
    context.  It carries:

    - a process-unique {e solve id} and the owning engine's
      {e (label) id} plus an optional {e tenant} tag — stamped onto
      every {!Span.event} and Chrome-trace lane;
    - the engine's {e observation gate}: [Span.enabled] consults
      {!local_observe} after the global switch, so an engine with
      [observe = false] keeps its forces out of the rings even while
      another engine records;
    - pre-interned {e labelled metric shards} (see {!Metrics}): the
      executor's cache/mempool/kernel instrumentation calls {!bump} /
      {!observe} next to the process-wide aggregate update, giving
      per-engine (and per-tenant) figures with no lock on the hot
      path;
    - per-stage wall times ({!time_stage}) feeding the flight
      recorder. *)

type t

val make :
  ?tenant:string ->
  ?observe:bool ->
  ?counters:string list ->
  ?histograms:string list ->
  engine_id:int ->
  unit ->
  t
(** A fresh scope with a new solve id.  [counters]/[histograms] name
    the metric families to shard: each is interned under the scope's
    label set ([engine], plus [tenant] when given) — a cold-path
    registry operation, done once here so {!bump} never locks.
    [observe] (default [true]) is the per-engine span gate. *)

val solve_id : t -> int
val engine_id : t -> int
val tenant : t -> string option
val labels : t -> Metrics.labels

(** {1 The domain-local current scope} *)

val current : unit -> t option
val with_scope : t -> (unit -> 'a) -> 'a
(** Install [s] as the calling domain's scope for the thunk's extent
    (restored afterwards, exceptions included). *)

val with_opt : t option -> (unit -> 'a) -> 'a
(** Like {!with_scope} but also able to install "no scope" — the form
    the domain pool uses to mirror the submitting domain. *)

val local_observe : unit -> bool
(** The current scope's observation gate; [true] outside any scope.
    Consumed by [Span.enabled] after the global switch. *)

(** {1 Shard accounting} *)

val bump : string -> int -> unit
(** Add to the current scope's shard of the named counter; no-op
    outside a scope or when the scope does not shard that family. *)

val observe : string -> int -> unit
(** Observe into the current scope's shard of the named histogram;
    no-op as for {!bump}. *)

val counter_value : t -> string -> int
(** The scope's shard value ([0] for an unsharded family) — cumulative
    for the engine label, not per-solve; callers diff snapshots. *)

(** {1 Stage timing} *)

val time_stage : string -> (unit -> 'a) -> 'a
(** Time the thunk and append [(name, elapsed_ns)] to the current
    scope's stage list (plain [f ()] outside a scope).  Always on —
    two clock reads per stage — and single-domain: only the solve's
    own domain may time stages. *)

val stages : t -> (string * int64) list
(** Recorded stages, in execution order. *)
