(** Stage 4 of the executor pipeline: compiled parts and cached plans.

    [compile_part] turns an optimised with-loop part into a [cpart] —
    clusters, output layout, chosen kernel — that executes by plain
    loop nests with no further analysis.  The same representation is
    what {!Plan_cache} stores: a [cplan] is the full recipe for one
    force (output mode plus compiled parts with buffer slots), with
    cluster buffers stripped so stored templates pin no dead grids;
    replay rebinds via {!rebind_cpart}. *)

open Mg_ndarray

(** {1 Compiled parts} *)

(** What a part touches, for {!prune}, computed once when the part is
    compiled: the generators it writes (its own, or each member's of a
    shell group); how many of their elements lie in the output's
    interior (every coordinate in [1, n-2]) and how many in its
    one-thick ghost shell; and per cluster, the regions of the
    cluster's buffer the part reads (bit 1 the interior, bit 2 the
    shell), from the bounding box of each read's image. *)
type foot = {
  fwrites : Generator.t array;
  finner : int;
  fouter : int;
  freads : int array;
}

type cpart = {
  kgen : Generator.t;
  kcard : int;
  kconst : float;
  kclusters : Cluster.ccluster array;
  kkernel : Kernel.k3 option;  (** [Some] iff the part is rank 3. *)
  kobase : int;
  kosteps : int array;
  kcounts : int array;
  kfoot : foot;
}

type compiled =
  | Ccompiled of cpart
  | Cclosure of Generator.t * int * Ir.expr
      (** Interpreter fallback: generator, cardinal, body. *)

val compiled_card : compiled -> int
val compiled_gen : compiled -> Generator.t

val compile_part :
  factor:bool ->
  line_buffers:bool ->
  cfun:bool ->
  native:string option ->
  oshape:Shape.t ->
  Ir.part ->
  compiled
(** Linear-form extraction, clustering, output layout, kernel choice
    ([native] — the AOT cache directory when the native tier is on —
    and [cfun] stage unrecognised bodies into {!Native} shared-object
    kernels or {!Cfun} closures instead of the interpreted generic
    nest); [Cclosure] when any stage fails to apply. *)

(** {1 Ghost-shell groups} *)

val shell_slab : Shape.t -> Generator.t -> bool
(** Whether the generator is a one-thick slab at index 0 or n-1 of
    some axis of the shape: it writes only the ghost shell. *)

val group_shell : Shape.t -> movable:bool -> compiled list -> compiled list
(** [group_shell shape ~movable parts] runs the parts that each write a
    dense {!shell_slab} of [shape] with a {!Kernel.groupable} kernel as
    one part — a {!Kernel.shell_group} at the place of the first of
    them — when there are at least two.  Members keep their order; a
    member that followed another part moves ahead of it, which needs
    [movable] (no part reads the output at an element another part
    writes: a fresh or filled output, or an in-place [OReuse] one) and
    disjoint generator boxes; otherwise the parts stay as they are.
    Slabs of {!default_par_threshold} elements or more, which a pool
    splits, are never members.  Bitwise-neutral. *)

val default_par_threshold : int
(** The default part size (16 384 elements) from which a pool of more
    than one worker splits a part into pieces ([Engine.default_config]). *)

val is_group : compiled -> bool
(** A shell group: always runs as one piece. *)

(** {1 Cached plans} *)

(** How the output buffer of a force is produced.  The slot names each
    base source: a binding slot ([int]) in a stored plan, the
    {!Ir.source} itself in the form {!Exec} runs, so a hit and a miss
    produce their output through the same code. *)
type 's out_mode =
  | OFresh  (** Fully covered: uninitialised allocation. *)
  | OFill of float  (** Partial genarray: fill with the default. *)
  | OBlit of 's  (** Modarray: copy the whole base first. *)
  | OComplement of 's * Shape.t * Shape.t
      (** Modarray with one dense part: copy the base outside [lb,ub). *)
  | OSteal of 's  (** Barrier modarray: update the base in place. *)
  | OLend of 's
      (** Barrier modarray whose parts write only the ghost shell of a
          base that has other readers: share the base's buffer, saving
          its shell first and restoring it when the loan ends.  Every
          force re-checks that the base can lend (not escaped, not
          already in a loan) and otherwise copies it. *)
  | OReuse of { slot : 's; edges : int }
      (** Fully covered sweep writing through a dead operand's buffer
          in place; [edges] is the number of reference-count edges the
          forced node holds on the operand, re-checked on every force
          (a replayed graph may keep the operand live or escaped, in
          which case the force falls back to a fresh allocation). *)

val map_mode : ('a -> 'b) -> 'a out_mode -> 'b out_mode

type cplan = {
  cmode : int out_mode;
  cparts : (cpart * int array) array;
      (** Compiled parts with, per cluster, the binding slot its buffer
          comes from. *)
  corder : int array;
      (** Binding slots the compiling force materialised, in the order
          it materialised them.  Replay forces and pins them in this
          order before running the parts, so a slot whose last
          consumer edge a nested force consumes still holds its
          buffer when the parts read it. *)
  celements : int;
  ccompile : float;  (** Seconds of optimisation/compilation a hit skips. *)
}

val dummy_buf : Ndarray.buffer
(** Shared zero-length buffer bound by stripped templates. *)

val rebind_cpart : cpart -> (int -> Ndarray.buffer) -> cpart
(** [rebind_cpart cp rebuf] rebinds cluster [j] to [rebuf j] and
    rebuilds the kernel payload accordingly. *)

val strip_cpart : cpart -> cpart
(** Replace every cluster buffer by {!dummy_buf} (plan storage). *)

val safe_to_alias : Ndarray.buffer -> compiled list -> bool
(** Whether the output of a fully covered sweep may alias [buf]: every
    read of [buf] in every compiled part must be an identity read
    (cluster base and steps equal to the output layout, all deltas
    zero; identity index map on the closure path).  One rule serves
    every kernel tier: each reads all of an element's operands before
    it stores that element, once.  Conservative: unknowable reads
    (opaque bodies, unforced node reads) reject. *)

val assemble :
  bindings:Ir.source array ->
  recorded:(Ir.node * Ndarray.buffer) list ->
  mode:Ir.source out_mode ->
  elements:int ->
  compile_cost:float ->
  compiled list ->
  cplan option
(** Build the storable plan for one force: resolve the output mode's
    source and each cluster buffer to its binding slot (physical
    identity, including a materialised node deduplicated against a
    leaf) and strip the templates.  [recorded] lists, in
    materialisation order, each node the force materialised with the
    buffer it had then; node bindings resolve only through it, so a
    node released mid-force still maps to its slot, and it becomes the
    plan's {!cplan.corder}.  [None] when a part stayed on the closure
    path or a source or buffer is no binding's (the force is
    uncacheable). *)

(** {1 Tapes}

    One recorded call of a [Wl.staged] stepper ({!Exec.step}): every
    buffer effect of the per-force path, in order, over symbolic buffer
    ids.  Ids [0 .. k] are the call's bound buffers (the input, then the
    parameters; a parameter sharing an earlier slot's buffer uses that
    slot's id), every pool allocation gets the next id.  A tape holds no
    buffer: every id is bound per replay.  A stored tape has been
    through {!prune}: it keeps only the effects something reads. *)

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
  | Run of int * (cpart * int array) array
      (** Output, stripped parts with the buffer id of each cluster. *)
  | Forced of seen  (** One force is complete. *)

val written : op -> int option
(** The buffer an op writes or recycles, if any. *)

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
    bounding boxes of their images ({!foot}); a [Run] kills a region
    only when its parts cover it exactly with disjoint generators.  Replaying the pruned tape gives
    bitwise the same result and handed-back input. *)

type cache_entry = Cached of cplan | Uncacheable | Taped of tape
(** One {!Plan_cache} slot of an engine: a stored plan, a tombstone for
    a key whose graph failed {!assemble} (replays skip the assembly
    attempt instead of re-failing it every force), or a stepper's tape
    (its key starts with ['T'], a plan key with the engine's
    fingerprint). *)
