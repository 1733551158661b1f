(** Staged calls: the tapes of [Wl.staged] steppers.

    A {!stepper}'s tape is one recorded call of its body: every buffer
    effect the per-force path ({!Exec}) performed — pool allocations
    and recycles, fills, blits and complements, ghost-shell saves and
    restores, each force's compiled parts, the reuse, lent and copied
    counts — in order, over symbolic buffer ids.  Ids [0 .. k] are the
    call's bound buffers (the input, then the parameters; a parameter
    sharing an earlier slot's buffer uses that slot's id), every pool
    allocation gets the next id.  A tape holds no buffer: every id is
    bound per replay.  A stored tape has been through {!prune}: it
    keeps only the effects something reads.

    A call binds an input and an array of parameters; when each is a
    buffer, the call's signature (see [Wl.staged]) keys a tape in the
    engine's plan cache.  A call whose signature has a tape runs it
    with no graph build, key hashing, plan lookup or hold; any other
    call runs the body on the per-force path, recording a tape under
    its signature when it can.  Replays count in the [stage.replays]
    shard, and the stores each replay skips in [stage.elided{op}];
    every other call counts one [stage.fallback{reason}]: [unrecorded]
    (the cache holds no tape of the stepper), [signature] (it holds one
    under another signature, or a bound source is no buffer),
    [captured] (the graph reaches a materialised node or an array that
    is not bound, or writes or releases a parameter), [opaque],
    [closure] (a part runs as an interpreted closure), [escape] (a
    force, escape or fold inside the body) or [nested] (the domain is
    already recording).

    The recorder is domain-local.  The per-force path reports each
    buffer effect through one of the recording hooks below, which
    performs the effect and, while the calling domain records, appends
    it to the tape; with no recording live a hook costs one
    domain-local read.  The replay performs each effect through the
    same function as its hook. *)

open Mg_ndarray

(** {1 Tapes} *)

(** What one force shows traces and spans. *)
type seen = {
  tag : string;
  elements : int;
  extent : int;
  bytes_alloc : int;
  kernel : string;
  out : string;
}

type op =
  | Alloc of int * Shape.t
  | Recycle of int
  | Fill of int * float
  | Blit of int * int  (** Source, destination. *)
  | Complement of int * int * Shape.t * Shape.t
  | Save_shell of int * int  (** Lent buffer, shell. *)
  | Restore_shell of int * int  (** Buffer, shell. *)
  | Reuse of int
  | Count of Mg_obs.Metrics.counter Mg_obs.Scope.family
  | Run of int * (Plan.cpart * int array) array
      (** Output, stripped parts with the buffer id of each cluster. *)
  | Forced of seen  (** One force is complete. *)

type tape = {
  tstepper : int;  (** The recording stepper's id. *)
  tops : op array;
  tbufs : int;  (** Buffer ids the tape uses. *)
  tresult : int;
  tinput : int option;  (** The input node's buffer afterwards; [None]: released. *)
  trefs : int;  (** The input node's reference count, afterwards minus before. *)
  telided : int array;  (** Ops {!prune} dropped, per {!elided_ops} kind. *)
}

val elided_ops : string array
(** The kinds of op {!prune} counts: ["part"] (a [Run] part; a shell
    group is one), ["save"], ["restore"], ["fill"]. *)

val prune : bound:Shape.t array -> tape -> tape
(** The backward liveness pass over a recorded tape ([bound]: the
    shapes of its bound buffer ids).  Per buffer id it tracks whether
    the interior and the one-thick ghost shell are live; the result and
    the handed-back input are live in full at the tape's end.  It drops
    the [Run] parts whose written regions are all dead, the
    [Save_shell]/[Restore_shell] pairs whose restored shell is dead, the
    [Fill]s overwritten before any read, and the [Alloc]/[Recycle] of a
    buffer no kept op touches.  Reads are over-approximated by the
    bounding boxes of their images ({!Plan.foot}); a [Run] kills a
    region only when its parts cover it exactly with disjoint
    generators.  Replaying the pruned tape gives bitwise the same result
    and handed-back input. *)

type cache_entry = Cached of Plan.cplan | Uncacheable | Taped of tape
(** One {!Plan_cache} slot of an engine: a stored plan, a tombstone for
    a key whose graph failed {!Plan.assemble} (replays skip the
    assembly attempt instead of re-failing it every force), or a
    stepper's tape (its key starts with ['T'], a plan key with the
    engine's fingerprint). *)

(** {1 Recording hooks}

    Each performs its effect; while the calling domain records, it
    also appends the effect to the tape, over the ids of the buffers it
    touches.  A buffer with no id belongs to a value outside the call,
    and refuses the recording ([captured]). *)

val alloc : pooling:bool -> Shape.t -> Ndarray.t
val recycle : pooling:bool -> Ndarray.t -> unit
val fill : Ndarray.t -> float -> unit
val blit : src:Ndarray.t -> dst:Ndarray.t -> unit

val copy_complement : Ndarray.t -> Ndarray.t -> Shape.t -> Shape.t -> unit
(** {!Lower.copy_complement}. *)

val count : Mg_obs.Scope.shards -> Mg_obs.Metrics.counter Mg_obs.Scope.family -> unit

val save_shell : Ndarray.t -> Ndarray.t -> int
(** [save_shell arr shell] saves a lent buffer's ghost shell.  Under
    [Mempool] debug, [arr] must not sit in a free slot, and the result
    is its interior's checksum (0 otherwise). *)

val restore_shell : Ir.loan -> Ndarray.t -> unit
(** [restore_shell l arr] writes the loan's saved shell back into
    [arr]: the shared buffer, or a copy of it.  Under debug, [arr] must
    not sit in a free slot, and its interior must match the loan's
    checksum. *)

val reuse : Ndarray.t -> unit
(** A force's output aliases this dying operand's buffer
    ([mempool.reuse_hits]). *)

val run : Backend.ctx -> Ndarray.t -> Plan.compiled list -> unit
(** Run a force's parts into its output.  A part on the closure path
    refuses the recording ([opaque] or [closure]). *)

val forced : Mg_obs.Span.timer -> cache:string -> seen -> unit
(** A force is complete: close its [wl:force] span, when active, with
    the record's attributes and the cache outcome.  A replay closes the
    span from the recorded record, with cache [replay]. *)

val live : unit -> bool
(** Whether the calling domain records: {!forced}'s record is built
    only when this or the span is on. *)

val leave : unit -> unit
(** A value leaves the graph (a force from outside the executor, or a
    fold).  Inside a recording only the stepper's own force of the
    body's result may; any other refuses it ([escape]). *)

val computing : Ir.node -> unit
(** The per-force path computes this node. *)

val reached : Ir.node -> unit
(** The graph reaches this materialised node: unless the recording
    computed or bound it, the recording is refused ([captured]). *)

(** {1 Steppers} *)

type stepper

val stepper : (Ir.source array -> Ir.source -> Ir.source) -> stepper
(** A stepper with a fresh id, which its tapes are keyed by. *)

val step :
  cache:cache_entry Plan_cache.t -> shards:Mg_obs.Scope.shards -> pooling:bool -> env:string ->
  ctx:Backend.ctx -> force:(Ir.node -> unit) -> stepper -> Ir.source array -> Ir.source -> Ir.source
(** [step ~cache ~shards ~pooling ~env ~ctx ~force s params input]: one
    call of the stepper's body on the given parameters and input.  A
    call whose signature ([env], [pooling], the stepper and its bound
    sources) has a tape in [cache] replays it, running parts on [ctx];
    any other builds the body's graph and [force]s its result on the
    per-force path, recording a tape when it can. *)
