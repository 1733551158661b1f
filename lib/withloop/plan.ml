open Mg_ndarray
module Span = Mg_obs.Span

(* ------------------------------------------------------------------ *)
(* Compiled parts.

   A part is compiled once per force — linear-form extraction,
   clustering, output layout and kernel choice — into a [cpart] that
   executes by plain loop nests with no further analysis.  The compiled
   form is also what the plan cache stores: it references buffers only
   through its cluster array, which replay rebinds.  Parallel execution
   shifts the compiled bases by whole outer-axis steps per piece
   instead of re-deriving layouts piece by piece. *)

type cpart = {
  kgen : Generator.t;
  kcard : int;
  kconst : float;
  kclusters : Cluster.ccluster array;
  kkernel : Kernel.k3 option;  (* [Some] iff the part is rank 3 *)
  kobase : int;
  kosteps : int array;
  kcounts : int array;
}

type compiled =
  | Ccompiled of cpart
  | Cclosure of Generator.t * int * Ir.expr  (* gen, cardinal, body *)

let compiled_card = function Ccompiled c -> c.kcard | Cclosure (_, card, _) -> card
let compiled_gen = function Ccompiled c -> c.kgen | Cclosure (g, _, _) -> g

let compile_part ~factor ~line_buffers ~cfun ~native ~ostrides (p : Ir.part) : compiled =
  let gen = p.Ir.gen in
  let card = Generator.cardinal gen in
  match Span.with_ ~name:"wl:linform" (fun () -> Linform.of_expr p.Ir.body) with
  | None -> Cclosure (gen, card, p.Ir.body)
  | Some lf -> (
      let groups = Span.with_ ~name:"wl:lower" (fun () -> Lower.groups_of ~factor lf) in
      let const = lf.Linform.const in
      match Cluster.axes_of_gen gen with
      | None -> Cclosure (gen, card, p.Ir.body)
      | Some ax -> (
          match Span.with_ ~name:"wl:cluster" (fun () -> Cluster.clusterize ax groups) with
          | None -> Cclosure (gen, card, p.Ir.body)
          | Some clusters ->
              let kobase, kosteps = Cluster.out_layout_of ~ostrides ax in
              let kkernel =
                if Array.length ax.Cluster.counts = 3 then
                  Some
                    (Span.with_ ~name:"wl:kernel-choice" (fun () ->
                         Kernel.choose_k3 ~line_buffers ~cfun ~native ~const clusters
                           ~osteps:kosteps))
                else None
              in
              Ccompiled
                { kgen = gen;
                  kcard = card;
                  kconst = const;
                  kclusters = clusters;
                  kkernel;
                  kobase;
                  kosteps;
                  kcounts = ax.Cluster.counts;
                }))

(* ------------------------------------------------------------------ *)
(* Ghost-shell groups.

   The parts of a force that each write a dense one-thick slab at index
   0 or n-1 of some axis and run an element-wise kernel (zip, copy,
   constant) become one part running one group kernel
   ({!Kernel.shell_group}), at the place of the first of them.  The
   members keep their order, and every element its arithmetic; what
   moves is a member that followed some other part, which now runs
   before it.  That is legal when the two write disjoint boxes and
   neither reads what the other writes: the output is fresh or filled
   (no part reads it), or it aliases a dying operand that every part
   reads only at the element it computes ([OReuse]).  A stolen or lent
   base is the output itself, read at wrapped offsets or at identity:
   there nothing moves.

   A group always runs as one piece, as each member would have on its
   own: a slab of [default_par_threshold] elements or more, which a
   pool splits across its workers, stays out of groups. *)

let default_par_threshold = 16_384

let shell_slab shape (g : Generator.t) =
  let slab j =
    g.Generator.ub.(j) - g.Generator.lb.(j) = 1
    && (g.Generator.lb.(j) = 0 || g.Generator.lb.(j) = shape.(j) - 1)
  in
  List.exists slab (List.init (Shape.rank shape) Fun.id)

let is_group = function
  | Ccompiled { kkernel = Some k; _ } -> Kernel.is_shell k
  | Ccompiled _ | Cclosure _ -> false

let disjoint (a : Generator.t) (b : Generator.t) =
  let rank = Generator.rank a in
  let rec go j =
    j < rank
    && (a.Generator.ub.(j) <= b.Generator.lb.(j) || b.Generator.ub.(j) <= a.Generator.lb.(j) || go (j + 1))
  in
  go 0

(* The group keeps its first member's generator and layout: it is
   never split into pieces, so nothing reads them but diagnostics. *)
let group_shell shape ~movable (compiled : compiled list) =
  let member = function
    | Ccompiled ({ kkernel = Some k; _ } as cp) ->
        Kernel.groupable k
        && cp.kcard < default_par_threshold
        && Generator.is_dense cp.kgen
        && shell_slab shape cp.kgen
    | Ccompiled _ | Cclosure _ -> false
  in
  (* [crossed]: the non-members since the first member. *)
  let rec legal crossed = function
    | [] -> true
    | c :: rest when member c ->
        List.for_all (fun p -> movable && disjoint (compiled_gen c) (compiled_gen p)) crossed
        && legal crossed rest
    | p :: rest -> legal (p :: crossed) rest
  in
  let rec from_first = function c :: rest when not (member c) -> from_first rest | l -> l in
  match List.filter_map (function Ccompiled cp as c when member c -> Some cp | _ -> None) compiled with
  | first :: _ :: _ as members when legal [] (List.tl (from_first compiled)) ->
      let kernel, clusters =
        Kernel.shell_group
          (List.map
             (fun cp -> (cp.kconst, Option.get cp.kkernel, cp.kclusters, cp.kobase, cp.kosteps, cp.kcounts))
             members)
      in
      let group =
        { first with
          kcard = List.fold_left (fun acc cp -> acc + cp.kcard) 0 members;
          kconst = 0.0;
          kclusters = clusters;
          kkernel = Some kernel;
        }
      in
      List.filter_map
        (function
          | Ccompiled cp when cp == first -> Some (Ccompiled group)
          | c when member c -> None
          | c -> Some c)
        compiled
  | _ -> compiled

(* ------------------------------------------------------------------ *)
(* Cached plans                                                        *)

(* How the output buffer of a force is produced.  The slot names a base
   source: a binding slot in a stored plan, the source itself in the
   form the executor runs. *)
type 's out_mode =
  | OFresh  (** Fully covered: uninitialised allocation. *)
  | OFill of float  (** Partial genarray: fill with the default. *)
  | OBlit of 's  (** Modarray: copy the whole base first. *)
  | OComplement of 's * Shape.t * Shape.t
      (** Modarray with one dense part: copy the base outside [lb,ub). *)
  | OSteal of 's  (** Barrier modarray: update the base in place. *)
  | OLend of 's
      (** Barrier modarray writing only the ghost shell of a base that
          has other readers: share the base's buffer, its shell saved
          first (the executor re-checks that the base can lend). *)
  | OReuse of { slot : 's; edges : int }
      (** Fully covered sweep whose dead operand's buffer is written
          through in place ([edges] = reference-count edges this node
          holds on the operand; the executor re-checks them). *)

let map_mode f = function
  | OFresh -> OFresh
  | OFill d -> OFill d
  | OBlit s -> OBlit (f s)
  | OComplement (s, lb, ub) -> OComplement (f s, lb, ub)
  | OSteal s -> OSteal (f s)
  | OLend s -> OLend (f s)
  | OReuse { slot; edges } -> OReuse { slot = f slot; edges }

type cplan = {
  cmode : int out_mode;
  cparts : (cpart * int array) array;
      (** Compiled parts with, per cluster, the binding slot its buffer
          comes from.  Stored templates have their buffers stripped. *)
  corder : int array;
      (** Binding slots the compiling force materialised, in the order
          it materialised them; replay forces them in the same order. *)
  celements : int;
  ccompile : float;  (** Seconds of optimisation/compilation a hit skips. *)
}

(* Stored templates must not pin the buffers of the force that created
   them (a cached plan for a 258^3 operator would otherwise retain
   ~500 MB of dead grids), so cluster buffers are replaced by a shared
   zero-length dummy; replay rebinds before execution. *)
let dummy_buf : Ndarray.buffer =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let rebind_cpart (cpt : cpart) (rebuf : int -> Ndarray.buffer) =
  let kclusters = Array.mapi (fun j cl -> Cluster.with_buffer cl (rebuf j)) cpt.kclusters in
  { cpt with
    kclusters;
    kkernel = Option.map (Kernel.rebind_k3 kclusters ~koff0:0 ~koff1:0) cpt.kkernel;
  }

let strip_cpart (cp : cpart) = rebind_cpart cp (fun _ -> dummy_buf)

(* ------------------------------------------------------------------ *)
(* Buffer-reuse legality (in-place update)

   The output of a fully covered sweep may alias a dead operand's
   buffer only when no kernel can observe the overwrite: every read of
   that buffer must be an *identity* read — element [e] of the operand
   is read only while computing element [e] of the output.  Structurally
   that is a cluster whose flat base and steps coincide with the output
   layout on every axis that advances ({!Cluster.walks_output}) and
   whose delta sets are all zero (offsets, strided windows, transposes
   and broadcasts all shift base or steps).  Every kernel — fixed,
   cfun, native and generic — reads all of an element's operands
   before it stores that element, once, and pieces partition the index
   space, so identity reads stay inside the piece under any backend,
   policy or tile shape.  (The emitted C never carries
   [restrict] on the output pointer, so the C compiler must honour the
   aliasing too.)  A shell group checks each member's reads against
   that member's own layout. *)

let cluster_identity (cp : cpart) (cl : Cluster.ccluster) =
  Cluster.walks_output ~counts:cp.kcounts ~obase:cp.kobase ~osteps:cp.kosteps
    ~base:cl.Cluster.xbase ~steps:cl.Cluster.xsteps
  && Array.for_all (fun ds -> Array.for_all (fun d -> d = 0) ds) cl.Cluster.xdeltas

let cpart_alias_safe (cp : cpart) (buf : Ndarray.buffer) =
  match cp.kkernel with
  | Some k when Kernel.is_shell k -> Kernel.shell_alias_safe k cp.kclusters buf
  | _ ->
      Array.for_all
        (fun (cl : Cluster.ccluster) -> cl.Cluster.xbuf != buf || cluster_identity cp cl)
        cp.kclusters

(* Closure-path parts interpret the body directly: require an identity
   index map on every read that resolves to the buffer, and reject
   reads whose backing buffer is unknowable (unforced nodes, opaque
   bodies make [Ir.expr_reads] under-approximate). *)
let closure_alias_safe (body : Ir.expr) (buf : Ndarray.buffer) =
  (not (Ir.expr_has_opaque body))
  && List.for_all
       (fun ((src : Ir.source), m) ->
         match src with
         | Ir.Arr a -> a.Ndarray.data != buf || Ixmap.is_identity m
         | Ir.Node n -> (
             match n.Ir.cache with
             | Some arr -> arr.Ndarray.data != buf || Ixmap.is_identity m
             | None -> false))
       (Ir.expr_reads body)

let safe_to_alias (buf : Ndarray.buffer) (compiled : compiled list) =
  List.for_all
    (function
      | Ccompiled cp -> cpart_alias_safe cp buf
      | Cclosure (_, _, body) -> closure_alias_safe body buf)
    compiled

(* ------------------------------------------------------------------ *)
(* Plan assembly                                                       *)

let slot_of_source (bindings : Ir.source array) (s : Ir.source) =
  let nb = Array.length bindings in
  let rec go i =
    if i >= nb then None
    else
      match (bindings.(i), s) with
      | Ir.Node a, Ir.Node b when a == b -> Some i
      | Ir.Arr a, Ir.Arr b when a.Ndarray.data == b.Ndarray.data -> Some i
      | Ir.Arr a, Ir.Node b when
          (match b.Ir.cache with Some arr -> arr.Ndarray.data == a.Ndarray.data | None -> false)
        ->
          (* A materialised node deduplicated against a leaf array. *)
          Some i
      | _ -> go (i + 1)
  in
  go 0

(* Build the storable plan for one force: resolve the output mode's
   source and each cluster buffer to the binding slot it came from and
   strip the templates.  [None] when a part stayed on the closure path
   or some source or buffer is not a binding's (the force is
   uncacheable).  A node binding resolves through the buffer [recorded]
   says the force materialised it with, not through its cache: by
   assembly time a nested force may have consumed the node's last
   edge. *)
let assemble ~(bindings : Ir.source array) ~(recorded : (Ir.node * Ndarray.buffer) list) ~mode
    ~elements ~compile_cost compiled =
  let ok = ref true in
  let cmode =
    map_mode
      (fun src ->
        match slot_of_source bindings src with
        | Some i -> i
        | None ->
            ok := false;
            0)
      mode
  in
  (* Buffer -> slot, skipping slot 0: that is the forced node itself,
     whose buffer coincides with a cluster's only through stealing, and
     replaying through it would recurse. *)
  let slot_buf =
    let acc = ref [] in
    for i = Array.length bindings - 1 downto 1 do
      match bindings.(i) with
      | Ir.Arr a -> acc := (a.Ndarray.data, i) :: !acc
      | Ir.Node m -> (
          match List.assq_opt m recorded with
          | Some b -> acc := (b, i) :: !acc
          | None -> ())
    done;
    !acc
  in
  let slot_of_buf b =
    List.find_map (fun (b', i) -> if b' == b then Some i else None) slot_buf
  in
  let cparts =
    List.filter_map
      (function
        | Cclosure _ ->
            ok := false;
            None
        | Ccompiled cp ->
            let slots =
              Array.map
                (fun (cl : Cluster.ccluster) ->
                  match slot_of_buf cl.Cluster.xbuf with
                  | Some i -> i
                  | None ->
                      ok := false;
                      0)
                cp.kclusters
            in
            Some (strip_cpart cp, slots))
      compiled
  in
  let corder =
    List.fold_left
      (fun acc (_, b) ->
        match slot_of_buf b with Some i when not (List.mem i acc) -> i :: acc | _ -> acc)
      [] recorded
  in
  if !ok then
    Some
      { cmode;
        cparts = Array.of_list cparts;
        corder = Array.of_list (List.rev corder);
        celements = elements;
        ccompile = compile_cost;
      }
  else None

(* What an engine's plan cache stores per structural key: a replayable
   plan, or a tombstone recording that this key's graph cannot be
   assembled (so later forces skip the assembly attempt). *)
type cache_entry = Cached of cplan | Uncacheable
