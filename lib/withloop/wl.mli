(** The user-facing WITH-loop DSL (the "SAC language" of this repo).

    Values of type {!t} are delayed arrays: building one records a
    with-loop in the IR graph, and {!force} runs the compiler pipeline
    ({!Fusion} folding, {!Linform} factoring, {!Exec} code generation,
    implicit parallelisation over the global domain pool).  The three
    SAC with-loop operators of Fig. 1 of the paper map to {!genarray},
    {!modarray} and {!fold}.

    Configuration lives in an explicit {!Engine.t} (see that module):
    {!force} consults the calling domain's current engine, so the
    solve hot path reads no [Wl] global.  {!Engine.config} is the only
    configuration surface — the analogue of sac2c's command-line
    switches.  Build an engine ([Engine.create]/[Engine.derive],
    [Driver.run ?engine]) or scope a derived one with {!with_config}. *)

open Mg_ndarray

type t
(** A (possibly delayed) array value. *)

val of_ndarray : Ndarray.t -> t
val force : t -> Ndarray.t
(** Materialise.  Idempotent and cached; the returned array must be
    treated as immutable (it may be shared with the cache and with
    other consumers). *)

val materialize : t -> t
(** Force without escaping: the value is computed and cached (cutting
    the consumer's graph depth like [of_ndarray (force v)]) but stays
    eligible for the executor's reference-count-driven buffer reuse —
    once its last registered consumer runs, the buffer may be
    overwritten in place or recycled.  Use only for intermediates whose
    handle is consumed exactly by the graphs already (or about to be)
    built from it; call {!force} to keep the value. *)

val read : t -> (Ndarray.t -> 'a) -> 'a
(** [read v f] forces [v] without escaping it and returns [f] applied
    to the value, which [f] must not keep.  Once [f] returns, the
    buffer goes back to the pool when [v] was not materialised before
    the call, has no consumers and is neither lent nor pinned — a
    result read once (a norm, a checksum) costs no buffer that
    outlives it. *)

val staged : (t array -> t -> t) -> t array -> t -> t
(** [staged body] is a stepper: [staged body params u] is
    [body params u] materialised as by {!materialize}, computed by
    recording once and replaying after that.  Make the stepper once
    and call it for the life of the program: its tapes outlive the
    calls that record them.

    {b Parameters.}  [params] and [u] are the call's bound sources,
    bound afresh at every call; each must be a buffer — an array, or a
    materialised node that is not escaped, lent or pinned — or the
    call runs on the per-force path.  The call's signature is:

    - the stepper (each [staged] mints an id);
    - the plan-affecting settings and [pooling] of the current engine;
    - per bound source: leaf or node, shape, strides and, for a node,
      its outstanding consumers counted before [body] runs, plus which
      earlier bound source shares its buffer (aliasing);

    never a buffer's identity.  A call with a new signature builds
    [body]'s graph and forces it on the per-force path while
    recording every buffer effect (the tape).  A call whose signature
    has a tape replays it — the same compiled kernels over this call's
    buffers — with no graph build, key hashing, plan lookup or hold.

    {b Tape lifetime.}  A tape is stored in the current engine's plan
    cache, under its signature, next to the plans: engines derived by
    {!with_config} and serving siblings created with [~share_cache]
    replay each other's tapes, on their own domains' arenas; a tape
    counts against the cache's LRU capacity and can be evicted like a
    plan, and {!cache_clear} drops it; the next call then records
    again.  A tape holds no buffer, and a body that raises while
    recording stores none.

    The contract: [body] must be a function of its parameters, its
    input and of values that do not change between calls, and must
    neither write nor release a parameter.  A recording is refused
    (the call stays on the per-force path) when the graph reaches a
    materialised node or an array that is not bound, writes or
    releases a parameter, runs an opaque ([Expr.of_fun]) or otherwise
    interpreted part, forces, escapes or folds inside [body], or when
    a stepper is called inside another's body (see {!Tape} for
    the fallback reasons).  The recorder is domain-local: steppers on
    separate domains do not interfere.  A replayed result cannot be
    recomputed: forcing it again after its buffer was released raises
    instead of returning stale data. *)

val run_reference : t -> Ndarray.t
(** The O0 reference interpreter ({!Reference}): per-element
    tree-walking evaluation with no fusion, clustering, kernels, cfun
    staging, buffer reuse or parallel split, and no effect on the
    graph (caches and reference counts are untouched).  The
    differential oracle suite holds every engine configuration to this
    bitwise. *)

val shape : t -> Shape.t
val rank : t -> int
val dim : t -> int  (** SAC's [dim(array)]. *)

val sel : t -> Shape.t -> float
(** SAC's [array[iv]] on a forced value (forces the argument). *)

(** Element expressions for with-loop bodies.  The implicit argument of
    every expression is the index vector of the enclosing generator. *)
module Expr : sig
  type e = Ir.expr

  val const : float -> e
  val read : t -> e  (** The producer element at the consumer's index. *)

  val read_at : t -> Ixmap.t -> e
  val read_offset : t -> Shape.t -> e  (** Producer element at [iv + d]. *)

  val of_fun : (Shape.t -> float) -> e
  (** Arbitrary OCaml function of the index — opaque to optimisation. *)

  val neg : e -> e
  val sqrt : e -> e
  val abs : e -> e
  val ( + ) : e -> e -> e
  val ( - ) : e -> e -> e
  val ( * ) : e -> e -> e
  val ( / ) : e -> e -> e
end

val genarray : ?barrier:bool -> ?default:float -> Shape.t -> (Generator.t * Expr.e) list -> t
(** [genarray shp parts]: fresh array of shape [shp]; each generator's
    indices get its body's value, everything else [default] (0). *)

val modarray : ?barrier:bool -> t -> (Generator.t * Expr.e) list -> t
(** [modarray a parts]: like [a] with the generators overwritten.
    Set [barrier] to forbid folding this node into consumers (used for
    the periodic-border updates).  A barrier's parts must read [a] at
    identity (element [iv] while computing element [iv]) or outside
    every part's write region: the executor may then update [a]'s
    buffer in place, stolen when nothing else reads [a], lent with its
    ghost shell saved when something does. *)

val fold : op:Exec.fold_op -> neutral:float -> Generator.t -> Expr.e -> float
(** Eager reduction over a generator (the fold with-loop).  The
    operator must be associative and commutative, as in SAC — the
    engine may regroup partitions. *)

(** {1 Compiler configuration} *)

val with_config : (Engine.config -> Engine.config) -> (unit -> 'a) -> 'a
(** [with_config f k] runs [k] with an engine derived from the calling
    domain's current one ({!Engine.derive}: same plan cache and pool,
    config [f c]) installed as current.  Nothing is mutated; the
    previous engine is restored afterwards, exceptions included.
    Read the effective config with [Engine.config (Engine.current ())]. *)

val settings : unit -> Exec.settings
(** The executor settings of the calling domain's current engine
    (= [Engine.settings (Engine.current ())]). *)

(** {1 Plan cache}

    Compiled with-loop plans are memoised per engine under structural
    keys (see {!Plan_cache}); repeated forces of an identical graph
    shape — every V-cycle iteration after the first — skip the
    optimisation pipeline entirely.  These operate on the current
    engine's cache; engines derived by {!with_config} share their
    parent's cache and metric shards, so statistics accumulate across
    scoped reconfigurations. *)

val cache_stats : unit -> Plan_cache.stats
val cache_clear : unit -> unit
(** Drop the current engine's cached plans and stepper tapes and zero
    its statistics (pooled buffers are released too). *)
