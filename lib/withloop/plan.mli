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

(** What a part touches, for {!Tape.prune}, computed once when the part is
    compiled: the generators it writes (its own, or each member's of a
    shell group); how many of their elements lie in the output's
    interior (every coordinate in [1, n-2]) and how many in its
    one-thick ghost shell; and per cluster, the regions of the
    cluster's buffer the part reads ({!region_interior},
    {!region_shell}), from the bounding box of each read's image. *)
type foot = {
  fwrites : Generator.t array;
  finner : int;
  fouter : int;
  freads : int array;
}

val region_interior : int
val region_shell : int

val interior_size : Shape.t -> int
(** The number of elements with every coordinate in [1, n-2]. *)

val disjoint : Generator.t -> Generator.t -> bool
(** Whether two generators' bounding boxes are disjoint. *)

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

val pair_rows : fresh:bool -> compiled list -> compiled list
(** [pair_rows ~fresh parts] runs each two adjacent rank-3 parts whose
    boxes interleave along the row axis (the same box on axes 0 and 1,
    step 2 along axis 2, the second starting one element after the
    first, the same counts) and whose reads {!Kernel.pair} takes as one
    part over the union of their boxes: the residue-split
    prolongation's parity classes, two by two.  Only the order of the
    two members' stores changes, so it needs [fresh]: an output no part
    reads (fresh, filled, blitted or complemented); otherwise the parts
    stay as they are.  Bitwise-neutral. *)

val default_par_threshold : int
(** The default part size (16 384 elements) from which a pool of more
    than one worker splits a part into pieces ([Engine.default_config]). *)

val single_piece : compiled -> bool
(** A shell group or a border walk: always runs as one piece. *)

(** {1 The periodic border walk} *)

val periodic_border : Shape.t -> Ir.source -> Ir.part list -> bool
(** [periodic_border shape base parts]: whether the parts are exactly
    the periodic border of [base] ([Border.setup_periodic_border]) —
    rank 3, every extent at least 3, the 26 one-thick shell regions
    (per axis [0, 1), [1, n-1) or [n-1, n), not all the middle), each
    once, each part one read of [base], a node, at its wrap offset
    (per axis n-2, 0 or 2-n). *)

val border : oshape:Shape.t -> Ir.part list -> compiled
(** The one part that replaces a {!periodic_border}'s parts: a
    {!Kernel.border} walk over the output, whose one cluster is a
    carrier of the output buffer (bound by {!bind_out}).  Its foot
    writes the parts' 26 regions — the whole shell, in distinct cells
    — and reads the carrier's interior. *)

val is_border : compiled -> bool

val out_slot : int
(** The binding slot a stored plan gives a border walk's carrier: the
    force's own output, bound after it is produced. *)

val bind_out : Ndarray.buffer -> compiled list -> compiled list
(** Bind every border walk's carrier to the output buffer; the list
    itself when there is no walk. *)

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
          comes from ({!out_slot} for a border walk's carrier). *)
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
