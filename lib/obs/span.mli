(** Hierarchical spans with per-domain lock-free ring buffers.

    A span is one timed interval of the executor pipeline — a force, a
    fusion pass, a kernel choice, a piece execution — identified by
    name, annotated with string attributes, and stamped with monotonic
    nanosecond timestamps.  Spans opened on different domains go to
    different ring buffers, so workers of {!Mg_smp.Domain_pool} record
    without contention; each ring has a single writer (its domain) and
    is only read after the parallel region by {!events}.

    The whole subsystem sits behind {e one} atomic switch: with
    observation disabled, {!with_} is a single [Atomic.get] and a
    branch — no clock read, no allocation — so instrumented code paths
    cost nothing measurable in production runs (the test suite asserts
    a per-call bound). *)

(** {1 The global switch} *)

val enabled : unit -> bool
(** The global switch: recording happens only when it says yes. *)

val set_enabled : bool -> unit
(** Hold the switch on, or release that hold. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled true f] holds the switch on for [f]'s extent
    (exceptions included).  Holds count: recording stays on while any
    hold is open, so sessions that overlap — on one domain or on
    several — never switch each other off.  [with_enabled false f] is
    [f ()]: it takes no hold and releases none. *)

(** {1 Recorded events} *)

type event = {
  name : string;
  lane : int;  (** Domain id of the recording domain (one trace lane). *)
  depth : int;  (** Nesting depth on that lane at record time (>= 1). *)
  start_ns : int64;
  end_ns : int64;  (** Equal to [start_ns] for a zero-duration marker. *)
  attrs : (string * string) list;
  scope : Scope.t option;
      (** The recording domain's solve scope at record time ([None]
          outside any solve) — the attribution handle for concurrent
          engines. *)
}

val duration_ns : event -> int64

val int_attr : event -> string -> int
(** An attribute read as an integer; 0 when absent or not a number. *)

(** {1 Recording} *)

val with_ : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Time a thunk under a span.  When observation is disabled this is
    just [f ()] behind one atomic load.  The span is recorded even if
    the thunk raises. *)

(** Explicit timers, for call sites whose attributes are only known at
    the end of the interval (kernel path, cache outcome, …).  A timer
    is dead (all operations no-ops) when it was started with
    observation disabled, so attribute construction should be guarded
    with {!active}. *)
type timer

val null : timer
(** A dead timer; {!stop} on it is a no-op. *)

val start : unit -> timer
(** Read the clock and open a nesting level — or return {!null} when
    observation is disabled. *)

val active : timer -> bool

val stop : ?attrs:(string * string) list -> name:string -> timer -> unit
(** Close the span opened by {!start}.  Every started timer must be
    stopped exactly once (an unstopped timer only skews the depth
    bookkeeping of its lane, it cannot corrupt the ring). *)

(** {1 Collection} *)

val events : unit -> event list
(** Everything currently recorded, across all lanes, sorted by start
    timestamp.  Call outside parallel regions: rings are single-writer
    and reading one mid-flight may return a half-updated tail. *)

val dropped : unit -> int
(** Events overwritten because a lane's ring wrapped (per-lane capacity
    {!capacity}). *)

val lost_since : int64 -> bool
(** Whether a ring may have overwritten an event that ended at or after
    the given monotonic timestamp (nanoseconds, the clock events are
    stamped with): true when some wrapped lane's oldest surviving event
    ended then or later.  Conservative — it never says false of a
    truncated interval. *)

val clear : unit -> unit
(** Drop all recorded events and the drop count (keeps the rings). *)

val capacity : int
(** Per-lane ring capacity (events). *)
