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

val fold_reference : op:Exec.fold_op -> neutral:float -> Generator.t -> Expr.e -> float
(** Reference evaluation of {!fold} (row-major per-element tree walk,
    see {!run_reference}). *)

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
(** Drop the current engine's cached plans and zero its statistics
    (pooled buffers are released too). *)
