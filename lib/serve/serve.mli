(** The multi-tenant solver service: many concurrent MG solves over
    one shared engine substrate (ROADMAP item 1).

    A {!t} owns a team of {e serving worker} domains, a bounded
    {!Admission} queue in front of them, and one {!Mg_withloop.Engine}
    per worker.  The worker engines are created with
    [Engine.create ~share_cache] — they pool compiled plans in a
    single shared {!Mg_withloop.Plan_cache} (and, transitively, the
    on-disk native shared-object cache), so the second tenant to ask
    for a given graph shape replays the first tenant's plan — while
    each owns a private execution pool, so concurrent solves never
    contend for loop workers.  Per-request isolation comes from the
    executor itself: arenas are per-domain and a worker runs one
    request at a time, so a buffer a request recycles is handed out
    again only to that worker's later allocations, and never while
    the request that recycled it still reads it.

    Clients {!submit} requests and {!await} outcomes by ticket;
    submission is non-blocking and refuses explicitly (admission
    control) instead of queueing without bound.  {!shutdown} drains:
    in-flight and queued work completes (or is cancelled on request),
    every ticket resolves, and the worker engines are shut down — no
    dropped completions, no deadlock.

    {2 Telemetry}

    The serving layer exports through the ordinary {!Mg_obs.Metrics}
    registry (and thus OpenMetrics/JSONL export):

    - [serve.submitted] / [serve.accepted] / [serve.rejected] /
      [serve.completed] / [serve.failed] / [serve.cancelled] —
      counters; accepted, rejected and completed requests are written
      only to their tenant's cell ([("tenant", name)]), and the
      unlabelled reads are the totals over tenants;
    - [serve.queue_depth] — gauge, the live queue length;
    - [serve.queue_ns] / [serve.solve_ns] / [serve.latency_ns] —
      log₂ histograms (queue wait, solve wall, submit-to-completion),
      [serve.latency_ns] likewise written per tenant — p50/p99 via
      {!Mg_obs.Metrics.quantile_of};
    - each solve additionally leaves the usual per-solve flight
      record and per-engine metric shards behind ([Driver.run] runs
      under a tenant-stamped {!Mg_obs.Scope}). *)

open Mg_withloop
open Mg_core

(** Kernel tier requested for a solve, mapped onto the engine's
    [cfun]/[native] flags by {!Engine.with_tier}. *)
type tier = Engine.tier = Generic | Cfun | Native

val tier_to_string : tier -> string

(** One solve order: which benchmark, at which size, under which
    engine knobs.  [None] knobs inherit the worker engine's config. *)
type spec = {
  impl : Driver.impl;
  cls : Classes.t;
  opt : Engine.opt_level option;
  tier : tier option;
}

val spec :
  ?opt:Engine.opt_level ->
  ?tier:tier ->
  impl:Driver.impl ->
  cls:Classes.t ->
  unit ->
  spec

type payload =
  | Solve of spec
  | Custom of (unit -> float)
      (** An arbitrary job run on the serving worker under its engine;
          the float plays the result slot.  The lifecycle tests poison
          workers through this. *)

type request = { tenant : string; weight : int; payload : payload }

val request : ?tenant:string -> ?weight:int -> payload -> request
(** [tenant] defaults to ["default"], [weight] to [1]. *)

type response = {
  ticket : int;
  tenant : string;
  worker : int;  (** Index of the serving worker that ran it. *)
  rnm2 : float;  (** Final residual norm ([Custom]: the thunk's value). *)
  verified : bool;  (** NAS verification ([Custom]: [true]). *)
  queue_ns : int64;  (** Submission → dispatch. *)
  solve_ns : int64;  (** Dispatch → completion. *)
}

type outcome =
  | Done of response
  | Failed of string  (** The payload raised; the worker survived. *)
  | Cancelled

type config = {
  capacity : int;  (** Admission bound on queued requests (default 64). *)
  workers : int;  (** Serving worker domains (default 2). *)
  solver_threads : int;
      (** Execution-pool size of each worker's engine (default 1: each
          concurrent solve runs sequentially — the right shape when
          [workers] already covers the machine). *)
  engine_config : Engine.config;
      (** Base config for the worker engines; [threads] is overridden
          by [solver_threads]. *)
}

val default_config : unit -> config
(** Capacity 64, 2 workers × 1 solver thread, engine config from the
    environment ({!Engine.config_of_env}). *)

type t

val create : ?config:config -> unit -> t
(** Start the serving workers (each with its own shared-cache engine)
    and an empty queue. *)

val submit : t -> request -> (int, Admission.reject) result
(** Non-blocking admission: [Ok ticket] or an explicit refusal
    ([Queue_full] at [capacity] queued requests, [Draining] after
    {!shutdown} began). *)

val await : t -> int -> outcome
(** Block until the ticket resolves.  Idempotent — outcomes are
    retained for the server's lifetime.
    @raise Invalid_argument on a ticket {!submit} never issued. *)

val peek : t -> int -> outcome option
(** [await] without blocking: [None] while still queued/in flight. *)

val cancel : t -> int -> bool
(** [true] iff the request was still queued — its outcome becomes
    {!Cancelled} and it will never run.  [false] once dispatched. *)

val stats : t -> Admission.stats
val engines : t -> Engine.t list
(** The worker engines (one per worker, shared plan cache; each
    engine's {!Engine.cache_stats} counts its own forces). *)

val shutdown : ?drain:bool -> t -> unit
(** Stop the service.  New submissions are refused immediately; with
    [drain = true] (default) queued requests still execute, with
    [drain = false] they resolve {!Cancelled}; in-flight requests
    always run to completion.  Joins every worker, shuts their
    engines down, and leaves every issued ticket resolved —
    {!await} after shutdown never blocks.  Idempotent. *)
