(** Per-solve trace contexts.

    A scope is created by [Driver.run] for each solve (via
    [Engine.new_scope]) and installed domain-locally for the solve's
    duration; [Mg_smp.Domain_pool] propagates the submitter's scope to
    its workers, so every domain touching the solve sees the same
    context.  It carries:

    - a process-unique {e solve id} and the owning engine's
      {e (label) id} plus an optional {e tenant} tag — stamped onto
      every {!Span.event} and Chrome-trace lane;
    - the owning engine's {e shard table} (see {!shards}): the
      executor's mempool, kernel-timing and native instrumentation
      writes its one cell per event through {!here}, giving
      per-engine figures with no lock on the hot path;
    - per-stage wall times ({!time_stage}) feeding the flight
      recorder. *)

(** {1 Sharded metric families}

    A family declared here is counted per engine: each event is one
    write to the forcing engine's [engine]-labelled cell, or to the
    family's unlabelled cell when no engine can be named.  The
    unlabelled read is the family total (see {!Metrics}), so it needs
    no second write. *)

type 'a family
(** A sharded family whose cells are ['a] ([Metrics.counter],
    [Metrics.gauge] or [Metrics.histogram]). *)

val counter_family : ?labels:Metrics.labels -> string -> Metrics.counter family
val gauge_family : string -> Metrics.gauge family
val histogram_family : string -> Metrics.histogram family
(** Declare a sharded family.  Declare at module initialisation: a
    table interned before the declaration has no cell for it, and
    routes its events to the unlabelled cell.  A counter family's
    [labels] (default none) are fixed labels every cell of the
    declaration carries besides [engine] — one declaration per value of
    a closed enum, such as a reason code; declarations of one name with
    different [labels] are cells of one registry family. *)

val total : 'a family -> 'a
(** The declaration's no-engine cell: writing it is the "no engine"
    write.  Without fixed labels it is the registry family's
    unlabelled instrument, so reading it gives the family total; with
    them, reading it gives that cell alone. *)

type shards
(** One engine's table: one labelled cell per declared family. *)

val shards : engine_id:int -> shards
(** Intern a cell labelled [("engine", engine_id)] for every declared
    family — a cold-path registry operation, done once per root
    engine. *)

val unattributed : shards
(** The empty table: every family resolves to its unlabelled cell. *)

val retire : shards -> unit
(** Fold the table's cells into their families' retired totals and
    drop them from the registry ({!Metrics.retire}).  The table must
    not be written afterwards. *)

val shard : shards -> 'a family -> 'a
(** The table's cell of a family. *)

val here : 'a family -> 'a
(** The current scope's cell of a family: {!shard} of its table, the
    unlabelled cell outside any scope. *)

(** {1 Scopes} *)

type t

val make : ?tenant:string -> ?shards:shards -> engine_id:int -> unit -> t
(** A fresh scope with a new solve id, writing to [shards] (default
    {!unattributed}; an engine passes its own table). *)

val solve_id : t -> int
val engine_id : t -> int
val tenant : t -> string option

(** {1 The domain-local current scope} *)

val current : unit -> t option
val with_scope : t -> (unit -> 'a) -> 'a
(** Install [s] as the calling domain's scope for the thunk's extent
    (restored afterwards, exceptions included). *)

val with_opt : t option -> (unit -> 'a) -> 'a
(** Like {!with_scope} but also able to install "no scope" — the form
    the domain pool uses to mirror the submitting domain. *)

(** {1 Stage timing} *)

val time_stage : string -> (unit -> 'a) -> 'a
(** Time the thunk and append [(name, elapsed_ns)] to the current
    scope's stage list (plain [f ()] outside a scope).  Always on —
    two clock reads per stage — and single-domain: only the solve's
    own domain may time stages. *)

val stages : t -> (string * int64) list
(** Recorded stages, in execution order. *)
