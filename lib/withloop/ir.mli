(** Delayed with-loop intermediate representation.

    Array operations built through {!Wl} and the array library do not
    execute immediately; they build a graph of {!node}s whose parts
    carry symbolic element expressions ({!expr}) over the implicit
    index vector.  Forcing a node runs the optimisation pipeline
    (folding, factoring — see {!Fusion} and {!Linform}) and then the
    compiled executor ({!Exec}).  This mirrors sac2c's pipeline, with
    graph construction playing the role of the SAC frontend. *)

open Mg_ndarray

type expr =
  | Const of float
  | Read of source * Ixmap.t
      (** Element of an array operand at an affine function of the
          index vector. *)
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Divf of expr * expr
  | Sqrt of expr
  | Absf of expr
  | Opaque of (Shape.t -> float)
      (** Escape hatch: an arbitrary OCaml function of the (absolute)
          index vector.  Executable but opaque to every optimisation. *)

and source = Arr of Ndarray.t | Node of node

and node = private {
  nid : int;  (** Unique id (diagnostics). *)
  nshape : Shape.t;
  spec : spec;
  barrier : bool;
      (** Fusion fence: a barrier node is always materialised, never
          substituted into consumers (used for the periodic-border
          updates, which the paper's benchmark also materialises). *)
  mutable refs : int;
      (** Number of outstanding consumer edges — the fusion
          profitability signal, decremented as consumers complete
          (SAC's runtime reference count).  A node whose count reaches
          zero may have its buffer recycled. *)
  mutable escaped : bool;
      (** The cached value was handed to user code via [Wl.force]; it
          must never be recycled. *)
  mutable released : bool;
      (** This node's edges to its sources have been consumed (its
          execution completed, or it died fused-away without ever
          executing).  Guards the release against running twice — a
          recompute of the node must not decrement its sources again,
          or the counts undercount live consumers and the in-place
          (steal/reuse) liveness checks fire on live buffers. *)
  mutable pin : int;
      (** [0], or the id of the node whose force materialised this one
          and whose compiled parts still read its buffer — negated once
          the node's last consumer edge is consumed while pinned (a
          nested force of a folded-away consumer), which defers its
          recycle to the unpin.  A pinned node is not recycled, stolen
          or reused in place by any other force.  Not a reference
          count: fusion and plan keys never read it. *)
  mutable cache : Ndarray.t option;
  mutable loan : loan option;
      (** The ghost-shell loan this node takes part in, as base or as
          borrower (the same record on both nodes), while it is live. *)
}

(** A ghost-shell loan ({!Exec}): a barrier border node whose base has
    other readers shares the base's buffer and writes its border parts
    into the base's ghost shell, which was saved first. *)
and loan = {
  lbase : node;  (** Owns the shared buffer once the loan ends. *)
  lborrower : node;
  lbuf : Ndarray.t;  (** The shared buffer. *)
  lshell : Ndarray.t;  (** The base's ghost shell, saved when lent. *)
  lsum : int;  (** Checksum of the base's interior under debug, else [0]. *)
}

and spec =
  | Genarray of { default : float; parts : part list }
      (** Fresh array: [default] outside all generators. *)
  | Modarray of { base : source; parts : part list }
      (** Copy of [base] with the generators overwritten. *)

and part = { gen : Generator.t; body : expr }

val genarray : ?barrier:bool -> ?default:float -> Shape.t -> part list -> node
(** @raise Invalid_argument if a generator's rank differs from the
    shape's or exceeds its bounds. *)

val modarray : ?barrier:bool -> source -> part list -> node
(** @raise Invalid_argument as {!genarray}; the base's shape gives the
    result shape. *)

val value : Shape.t -> Ndarray.t -> node
(** [value shp a]: a node materialised as [a] with no graph behind it
    (a staged call's result).  Forcing it again once its buffer has
    been released raises [Invalid_argument]; it is never recomputed. *)

val source_shape : source -> Shape.t

val expr_reads : expr -> (source * Ixmap.t) list
(** All reads in an expression, left to right. *)

val fold_reads : ('a -> source -> Ixmap.t -> 'a) -> 'a -> expr -> 'a
(** Fold over the reads of {!expr_reads}, in its order, without
    building the list. *)

val read_count : expr -> int
(** [List.length (expr_reads e)]. *)

val first_node_read : expr -> node option
(** The node of the first {!Node} read in {!expr_reads} order. *)

val expr_has_opaque : expr -> bool
(** Whether the expression contains an {!Opaque} leaf (whose reads
    {!expr_reads} cannot enumerate). *)

val map_leaves : (expr -> expr) -> expr -> expr
(** [map_leaves f e] replaces every leaf ([Const], [Read], [Opaque])
    [l] of [e] by [f l].  A subtree whose leaves [f] all returns
    physically unchanged is kept, not rebuilt. *)

val expr_sources : expr -> source list
(** Distinct node sources (physical identity). *)

val incr_refs : source -> unit
(** Record one new consumer edge (no-op for [Arr]).  Called by every
    constructor that embeds a source in a new node. *)

val set_cache : node -> Ndarray.t -> unit
(** Memoise the forced value (the executor's job; a node is forced at
    most once). *)

val clear_cache : node -> unit
(** Drop the memoised value — used when the executor steals a
    sole-consumer producer's buffer for an in-place update (SAC's
    reference-count-driven update-in-place). *)

val decr_refs : source -> unit
(** Record that one consumer edge has been satisfied. *)

val mark_escaped : node -> unit
val mark_released : node -> unit

val set_pin : node -> int -> unit
(** Set {!node.pin} ([0] drops the pin). *)

val set_loan : node -> loan option -> unit

val next_id : unit -> int
(** A fresh id from the node counter (the executor's folds pin their
    sources under one). *)

val pp_expr : Format.formatter -> expr -> unit
