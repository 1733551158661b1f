(** Trace-driven shared-memory-multiprocessor simulation.

    The container this repository runs in has a single CPU, so the
    paper's speedup experiments (Figs. 12 and 13, on a 12-processor
    SUN Enterprise 4000) cannot be measured natively.  Instead, a
    {e measured sequential run} is replayed as a list of {!op}s — one
    per array operation, with its real wall-clock cost — under a
    {!machine} model that captures exactly the scaling mechanisms §5
    of the paper analyses:

    - which loops an implementation's compiler can parallelise at all
      ([can_parallelize] — the automatic paralleliser only handles the
      regular [resid]/[psinv] nests, OpenMP parallelises every
      directive-annotated loop, SAC parallelises every with-loop);
    - the per-loop fork/join cost ([spawn_seconds], [chunk_seconds]);
    - the sequential execution of small grids at the bottom of the
      V-cycle ([min_par_elements] — "below a certain threshold grid
      size it is advised to perform all operations sequentially");
    - load imbalance growing with the processor count ([imbalance]);
    - and SAC's dynamic memory management, whose per-operation cost
      does not shrink with the grid or the processor count
      ([mem_per_alloc_seconds] — "invariant against grid sizes", the
      reason class W scales worse than class A).

    The ops are read off the run's {!Mg_obs.Span}s ({!traced}), the
    one record the executor and the low-level ports write per
    operation.  Machine-model constants are calibrated once (see
    {!Models}) and then held fixed across size classes and processor
    counts; the experiment binaries test which curve {e shapes}
    emerge. *)

(** {1 Operations} *)

type op = {
  tag : string;
      (** Operation name: a force's spec (["wl:genarray"],
          ["wl:modarray"]), ["wl:fold"], or a low-level port's loop
          (["f77:resid"], ["c:comm3"], …). *)
  elements : int;  (** Index-space points computed. *)
  seconds : float;  (** Measured sequential self time (nested operations excluded). *)
  bytes : int;  (** Fresh bytes allocated for the result (0 when a buffer was reused). *)
  extent : int;  (** Characteristic grid extent, for per-level analyses. *)
}

val traced : Mg_obs.Scope.t -> (unit -> 'a) -> op list * 'a
(** [traced scope f] runs [f] under [scope] with spans switched on and
    returns, with [f]'s result, the operations [scope]'s solve recorded
    in end order: every span of that solve carrying an ["extent"]
    attribute, timed by {!Mg_obs.Profile_report.op_self_times}.  Spans
    of other solves — another domain's, concurrently — are not
    counted.  Recorded spans are not cleared, so a span session around
    the call keeps them.
    @raise Failure when a span ring wrapped over part of the run
    ({!Mg_obs.Span.lost_since}): a truncated list is never returned. *)

val total_seconds : op list -> float

(** {1 Machine models} *)

type machine = {
  name : string;
  can_parallelize : op -> bool;
  min_par_elements : int;
  spawn_seconds : float;  (** Fixed fork/join cost per parallel loop. *)
  chunk_seconds : float;  (** Additional per-processor cost per loop. *)
  imbalance : float;
      (** Efficiency loss per extra processor: a loop's parallel time
          is [work / (p / (1 + imbalance * (p - 1)))]. *)
  mem_per_alloc_seconds : float;
      (** Memory-manager cost charged to every allocating operation,
          never divided by [p]. *)
}

val predict_op : machine -> procs:int -> op -> float
(** Modelled wall time of one operation on [procs] processors. *)

val predict : machine -> procs:int -> op list -> float
(** Modelled wall time of a whole run (operations are serially
    dependent in MG, so times add). *)

val speedup_series : machine -> max_procs:int -> op list -> (int * float) array
(** [(p, predict(1) / predict(p))] for p = 1..max_procs. *)

val parallel_fraction : machine -> op list -> float
(** Fraction of sequential time spent in operations the machine can
    parallelise — the Amdahl bound diagnostic. *)
