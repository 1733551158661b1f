(** With-loop folding.

    The optimisation the paper credits for SAC's performance (§1, §6,
    citing Scholz's IFL'98 study of WLF on exactly this benchmark):
    when a with-loop part reads another with-loop at an affine index,
    substitute the producer's element expression instead of
    materialising the producer array.

    Three situations arise, all exercised by NAS-MG:

    - the read's image lies inside one producer partition — plain
      substitution with index-map composition
      (e.g. [condense 2 (relax r p)]: only every 8th fine-grid stencil
      value is ever computed);
    - the image lies outside all partitions — the read becomes the
      genarray default constant or a read of the modarray base
      (e.g. the one-plane embedding of the coarsened grid);
    - the image straddles partitions — the {e consumer} generator is
      split (by coordinate range, or by residue class for strided
      producers such as [scatter]) until every piece is pure.  Residue
      splitting of [relax q (take (scatter 2 zn))] is what turns the
      27-point stencil over a mostly-zero scattered grid into the 8
      specialised 1/2/4/8-point interpolation kernels that low-level
      NAS-MG codes write by hand.

    Nodes are materialised instead of folded when folding is off, the
    node is a {!Ir.node.barrier}, it is already cached, or it is
    referenced by several consumers and is not a cheap selection. *)

open Mg_ndarray

type config = {
  fold : bool;  (** Enable folding at all (off below O2). *)
  split_strided : bool;  (** Enable residue-class splitting (O3). *)
  split_threshold : int;
      (** Consumer parts smaller than this materialise their producer
          instead of being split: the bookkeeping of generator
          splitting costs more than recomputing a tiny array (the same
          small-grid reasoning as the executor's parallel threshold). *)
}

val optimize :
  config ->
  force:(Ir.node -> Ndarray.t) ->
  ?complement:bool ->
  Generator.t ->
  Ir.expr ->
  Ir.part list
(** [optimize cfg ~force gen body] rewrites one consumer part into
    equivalent parts whose bodies read only materialised arrays
    ([Ir.Arr] sources), folding producers where the policy allows and
    calling [force] on the rest.  With [complement] (a lowered
    modarray's complement part, a copy of its base), a part that is
    still a bare read splits a selection it straddles at any size,
    below [split_threshold] too: each piece copies a copy or takes a
    constant, which is exact, and no thin shell slab materialises a
    whole producer (the prolongation's scattered grid).

    @raise Invalid_argument if a read's index image escapes the
    producer's shape (an out-of-bounds program). *)

val is_selection : Ir.node -> bool
(** Whether every part body of the node is a constant or a single
    read: such a node folds into any number of consumers. *)

val wants_fold : config -> Ir.node -> bool
(** Whether {!optimize} folds a read of this node into its consumer
    rather than materialising it. *)

val subst_index : Ixmap.t -> Ir.expr -> Ir.expr
(** [subst_index m body] is [body] with the implicit index vector
    substituted by [m]: every read map is composed with [m] and opaque
    functions are wrapped.  Exposed for tests. *)
