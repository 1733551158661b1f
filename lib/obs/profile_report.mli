(** Human-readable profile report over recorded spans.

    Four sections: a pipeline-stage summary (per span name: calls,
    self time — child spans subtracted — and total time), a per-level
    table (the operations of {!op_self_times}, grouped by V-cycle
    level: elements, self ns/elt, kernel paths, plan-cache hits), the
    per-domain utilisation (fraction of the observed window each lane
    spent inside spans), and the current {!Metrics} registry. *)

val self_times : Span.event list -> (Span.event * int64) list
(** Each event paired with its self time (duration minus immediate
    children on the same lane), in input order per lane. *)

val op_self_times : Span.event list -> (Span.event * int64) list
(** The operations among the events — the spans carrying an ["extent"]
    attribute: a with-loop force or fold, a loop nest of the low-level
    ports — each paired with its self time net of nested operations
    only (time in other nested spans, such as a force's plan
    compilation, stays with the operation).  This is the per-level
    table's rule; the charges partition the operations' time. *)

val pp : ?wall_seconds:float -> Format.formatter -> Span.event list -> unit
(** [wall_seconds], when given, is the externally measured wall time
    the per-level total is compared against (e.g. the benchmark's
    timed-phase seconds); the observed window is used otherwise. *)

val render : ?wall_seconds:float -> Span.event list -> string
