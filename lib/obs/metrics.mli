(** Typed metrics registry: atomic counters, gauges and log-bucketed
    histograms, optionally labelled.

    All mutation is on {!Stdlib.Atomic} cells, so instruments may be
    bumped concurrently from {!Mg_smp.Domain_pool} workers; creation
    interns by [(name, labels)] under a mutex, so [counter name]
    returns the same cell everywhere.

    {2 Families and labels}

    Every cell of one name forms a {e family}: the unlabelled cell,
    any number of labelled cells (e.g. [("engine", "3")]; label order
    is canonicalised at interning), and the retired total of labelled
    cells dropped by {!retire}.  An event is written once, to one
    cell: the engine's shard when one can be named (see
    [Scope.shards]), else the unlabelled cell.  Reading a labelled
    instrument returns its own cell; reading an {e unlabelled} one
    ({!value}, {!gauge_value}, {!histogram_snapshot},
    [quantile_of name], {!dump} and the unlabelled rows of
    {!dump_all}) returns the family total: the unlabelled cell plus
    every live labelled cell plus the retired total.  Totals are
    therefore monotone for counters and histograms, whatever is
    retired.  One {e kind} per family is enforced across all label
    sets — registering [gauge "x"] after [counter ~labels "x"]
    raises. *)

type labels = (string * string) list

type counter
type gauge
type histogram

(** {1 Counters} *)

val counter : ?labels:labels -> string -> counter
(** Find-or-create the counter for [(name, labels)] (atomic int,
    starts at 0); [labels] defaults to the family's unlabelled cell. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
(** A labelled counter's own cell; an unlabelled counter's family
    total. *)

val counter_labels : counter -> labels

(** {1 Gauges} *)

val gauge : ?labels:labels -> string -> gauge
(** Find-or-create the gauge for [(name, labels)] (atomic float,
    starts at 0). *)

val set_gauge : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
(** Atomic accumulate (CAS loop). *)

val gauge_value : gauge -> float
(** A labelled gauge's own cell; an unlabelled gauge's family total
    (the sum of its cells). *)

(** {1 Histograms}

    Fixed log-scaled buckets: bucket [i] counts observations [v] with
    [2^i <= v < 2^(i+1)] (bucket 0 also absorbs [v <= 1]); 63 buckets
    cover the whole non-negative [int] range.  Observations are
    dimensionless ints — by convention nanoseconds or elements. *)

val histogram : ?labels:labels -> string -> histogram
(** Find-or-create the histogram for [(name, labels)]. *)

val observe : histogram -> int -> unit

val bucket_of : int -> int
(** The bucket index an observation lands in. *)

val bucket_lo : int -> int
(** Inclusive lower edge of bucket [i] ([0] for bucket 0, else [2^i]). *)

type histogram_snapshot = { buckets : int array; count : int; sum : int }

val histogram_snapshot : histogram -> histogram_snapshot
(** A labelled histogram's own cell; an unlabelled histogram's family
    total, bucket by bucket.  [buckets] is trimmed to the last
    non-empty bucket. *)

val quantile : histogram_snapshot -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0 <= q <= 1]) of the
    observed distribution by nearest rank with linear interpolation
    inside the landing log₂ bucket — within one bucket of the exact
    order statistic by construction.  [0.0] on an empty snapshot. *)

val quantile_of : ?labels:labels -> string -> float -> float option
(** [quantile_of name q]: {!quantile} over the current snapshot of the
    registered histogram [(name, labels)] (the family total when
    [labels] is empty) — a read-only lookup that never interns.
    [None] when no such histogram exists or it has no
    observations (the serving harness reads per-tenant latency
    quantiles through this without perturbing the registry). *)

(** {1 Registry} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

val dump : unit -> (string * value) list
(** Every family with its total, sorted by name. *)

val dump_all : unit -> (string * labels * value) list
(** Every family's total (with empty labels) and every live labelled
    cell, sorted by name then labels. *)

val retire : labels -> unit
(** Fold every cell carrying all of [labels] (non-empty), and possibly
    more, into its family's retired total and drop it from the
    registry: family totals are unchanged, and the series no longer
    appear in {!dump_all}.  A handle to a retired cell must not be
    written afterwards — its writes would reach no total.
    [Engine.shutdown] retires the engine's shards this way, the
    reason-labelled cells of its families included. *)
