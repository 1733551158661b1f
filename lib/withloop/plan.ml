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

(* What a part touches, for the tape liveness pass ([Tape.prune]), computed
   once when the part is compiled: the generators it writes (its own,
   or each member's of a shell group), how many of their elements lie
   inside the output's interior and how many in its one-thick ghost
   shell, and per cluster the regions of the cluster's buffer the part
   reads. *)
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
  kkernel : Kernel.k3 option;  (* [Some] iff the part is rank 3 *)
  kobase : int;
  kosteps : int array;
  kcounts : int array;
  kfoot : foot;
}

type compiled =
  | Ccompiled of cpart
  | Cclosure of Generator.t * int * Ir.expr  (* gen, cardinal, body *)

(* Stored templates must not pin the buffers of the force that created
   them (a cached plan for a 258^3 operator would otherwise retain
   ~500 MB of dead grids), so cluster buffers are replaced by a shared
   zero-length dummy; replay rebinds before execution. *)
let dummy_buf : Ndarray.buffer =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let compiled_card = function Ccompiled c -> c.kcard | Cclosure (_, card, _) -> card
let compiled_gen = function Ccompiled c -> c.kgen | Cclosure (g, _, _) -> g

(* The regions of a buffer: the interior (every coordinate in
   [1, n-2]) and the one-thick ghost shell (the rest). *)
let region_interior = 1
let region_shell = 2

let interior_size (shape : Shape.t) =
  Array.fold_left (fun acc n -> acc * max 0 (n - 2)) 1 shape

(* The elements of a width-1 generator inside [shape]'s interior. *)
let interior_count (shape : Shape.t) (g : Generator.t) =
  let n = ref 1 in
  for j = 0 to Array.length shape - 1 do
    let lb = g.Generator.lb.(j) and ub = g.Generator.ub.(j) and step = g.Generator.step.(j) in
    let inside =
      if step = 1 then min ub (shape.(j) - 1) - max lb 1
      else
        let first = if lb >= 1 then 0 else (1 - lb + step - 1) / step in
        let last =
          if shape.(j) - 2 < lb then -1
          else min (Generator.axis_count g j - 1) ((shape.(j) - 2 - lb) / step)
        in
        last - first + 1
    in
    n := !n * max 0 inside
  done;
  !n

(* The regions a read touches: the bounding box of its image, from its
   index map over the part's axes, met with its source's regions. *)
let read_regions (ax : Cluster.axes) (r : Linform.read) =
  let shape = r.Linform.arr.Ndarray.shape and m = r.Linform.map in
  let inner = ref true and shell = ref false in
  for j = 0 to Array.length shape - 1 do
    let s = m.Ixmap.scale.(j) and d = m.Ixmap.div.(j) and n = ax.Cluster.counts.(j) in
    let first = ((s * ax.Cluster.c0.(j)) + m.Ixmap.offset.(j)) / d in
    let last = if n <= 1 then first else first + ((n - 1) * (s * ax.Cluster.astep.(j) / d)) in
    if first > shape.(j) - 2 || last < 1 then inner := false;
    if first < 1 || last > shape.(j) - 2 then shell := true
  done;
  (if !inner then region_interior else 0) lor if !shell then region_shell else 0

let foot_of ~oshape gen card (ax : Cluster.axes) (lf : Linform.t)
    (clusters : Cluster.ccluster array) =
  let nc = Array.length clusters in
  let freads = Array.make nc 0 in
  if card > 0 then
    for t = 0 to Array.length lf.Linform.reads - 1 do
      let r = lf.Linform.reads.(t) in
      let c = ref 0 in
      while !c < nc && clusters.(!c).Cluster.xbuf != r.Linform.arr.Ndarray.data do
        incr c
      done;
      (* A term factoring drops (coefficient 0) is in no cluster: it is
         never read.  Once a cluster reads both regions, its other
         reads add nothing (a stencil's first read often settles it). *)
      if !c < nc && freads.(!c) <> region_interior lor region_shell then
        freads.(!c) <- freads.(!c) lor read_regions ax r
    done;
  let finner = interior_count oshape gen in
  { fwrites = [| gen |]; finner; fouter = card - finner; freads }

let compile_part ~factor ~line_buffers ~cfun ~native ~oshape (p : Ir.part) : compiled =
  let gen = p.Ir.gen in
  let card = Generator.cardinal gen in
  match Span.with_ ~name:"wl:linform" (fun () -> Linform.of_expr p.Ir.body) with
  | None -> Cclosure (gen, card, p.Ir.body)
  | Some lf -> (
      let const = lf.Linform.const in
      match Cluster.axes_of_gen gen with
      | None -> Cclosure (gen, card, p.Ir.body)
      | Some ax -> (
          match Span.with_ ~name:"wl:cluster" (fun () -> Cluster.clusterize ax ~factor lf) with
          | None -> Cclosure (gen, card, p.Ir.body)
          | Some clusters ->
              let kobase, kosteps = Cluster.out_layout_of ~ostrides:(Shape.strides oshape) ax in
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
                  kfoot = foot_of ~oshape gen card ax lf clusters;
                }))

(* ------------------------------------------------------------------ *)
(* The periodic border walk.

   A barrier border whose parts are exactly the periodic border of its
   base ([periodic_border]) and which steals or borrows the base's
   buffer compiles to one part running {!Kernel.border} instead of 26:
   it fills the output's ghost shell from the output's own interior,
   which is the base's interior wherever the output comes from (the
   base's buffer, or a copy of it when the base cannot lend).  The
   part's one cluster is a carrier of the output buffer: it holds
   {!dummy_buf} until the executor binds it to the output
   ([bind_out]), and a stored plan names it by {!out_slot}.  Its [foot]
   writes the 26 regions (the shell, in distinct cells) and reads the
   carrier's interior, so the tape liveness pass sees the self-read as
   any part reading its output. *)

(* The cell, 0..26, of a periodic border region of [shape] read at
   offset [off], or -1: per axis, [0, 1) read at n-2, [1, n-1) at 0 or
   [n-1, n) at 2-n. *)
let border_cell (shape : Shape.t) (g : Generator.t) (off : Shape.t) =
  let c = ref 0 in
  for j = 0 to Array.length shape - 1 do
    let n = shape.(j) and lb = g.Generator.lb.(j) and ub = g.Generator.ub.(j) in
    let k =
      if lb = 0 && ub = 1 && off.(j) = n - 2 then 0
      else if lb = 1 && ub = n - 1 && off.(j) = 0 then 1
      else if lb = n - 1 && ub = n && off.(j) = 2 - n then 2
      else -1
    in
    c := if !c < 0 || k < 0 then -1 else (!c * 3) + k
  done;
  !c

let periodic_border (shape : Shape.t) (base : Ir.source) (parts : Ir.part list) =
  Shape.rank shape = 3
  && Array.for_all (fun n -> n >= 3) shape
  && List.compare_length_with parts 26 = 0
  &&
  (* The cells taken; the interior's, 13, counts as taken. *)
  let seen = ref (1 lsl 13) in
  List.for_all
    (fun (p : Ir.part) ->
      match p.Ir.body with
      | Ir.Read (Ir.Node src, m)
        when (match base with Ir.Node b -> src == b | Ir.Arr _ -> false)
             && Ixmap.is_pure_offset m && Generator.is_dense p.Ir.gen ->
          let c = border_cell shape p.Ir.gen m.Ixmap.offset in
          c >= 0
          && !seen land (1 lsl c) = 0
          &&
          (seen := !seen lor (1 lsl c);
           true)
      | _ -> false)
    parts

let border ~oshape (parts : Ir.part list) =
  let card = Shape.num_elements oshape - interior_size oshape in
  Ccompiled
    { kgen = Generator.full oshape;
      kcard = card;
      kconst = 0.0;
      kclusters = [| Kernel.carrier dummy_buf |];
      kkernel = Some (Kernel.border ());
      kobase = 0;
      kosteps = Shape.strides oshape;
      kcounts = Array.copy oshape;
      kfoot =
        { fwrites = Array.of_list (List.map (fun (p : Ir.part) -> p.Ir.gen) parts);
          finner = 0;
          fouter = card;
          freads = [| region_interior |];
        };
    }

let is_border = function
  | Ccompiled { kkernel = Some k; _ } -> Kernel.is_border k
  | Ccompiled _ | Cclosure _ -> false

let out_slot = -1

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
  let rec slab j =
    j < Shape.rank shape
    && ((g.Generator.ub.(j) - g.Generator.lb.(j) = 1
        && (g.Generator.lb.(j) = 0 || g.Generator.lb.(j) = shape.(j) - 1))
       || slab (j + 1))
  in
  slab 0

let single_piece = function
  | Ccompiled { kkernel = Some k; _ } -> Kernel.is_shell k || Kernel.is_border k
  | Ccompiled _ | Cclosure _ -> false

let rec disjoint_from (a : Generator.t) (b : Generator.t) j =
  j < Generator.rank a
  && (a.Generator.ub.(j) <= b.Generator.lb.(j)
     || b.Generator.ub.(j) <= a.Generator.lb.(j)
     || disjoint_from a b (j + 1))

let disjoint a b = disjoint_from a b 0

(* The group keeps its first member's generator and layout: it is
   never split into pieces, so nothing reads them but diagnostics.  Its
   [foot] is its members': their generators, their write counts summed,
   and the regions they read, renumbered to the group's clusters (one
   per buffer). *)
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
      let freads = Array.make (Array.length clusters) 0 in
      List.iter
        (fun cp ->
          Array.iteri
            (fun c r ->
              let buf = cp.kclusters.(c).Cluster.xbuf in
              let rec carrier j = if clusters.(j).Cluster.xbuf == buf then j else carrier (j + 1) in
              let j = carrier 0 in
              freads.(j) <- freads.(j) lor r)
            cp.kfoot.freads)
        members;
      let sum f = List.fold_left (fun acc cp -> acc + f cp.kfoot) 0 members in
      let group =
        { first with
          kcard = List.fold_left (fun acc cp -> acc + cp.kcard) 0 members;
          kconst = 0.0;
          kclusters = clusters;
          kkernel = Some kernel;
          kfoot =
            { fwrites = Array.of_list (List.map (fun cp -> cp.kgen) members);
              finner = sum (fun f -> f.finner);
              fouter = sum (fun f -> f.fouter);
              freads;
            };
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
(* Paired parity rows.

   Two adjacent rank-3 parts whose boxes interleave along the row axis
   — the same box on axes 0 and 1, step 2 along axis 2 with the second
   starting one element after the first, the same counts — and whose
   reads {!Kernel.pair} takes run as one part over the union of their
   boxes, which is dense along the row.  What changes is only the order
   in which the two members' stores reach the output, which no part
   reads ([fresh]: a fresh, filled, blitted or complemented output), so
   every element is bitwise its member's.  The part splits on axis 0
   like any other, cutting both members at the same planes; its [foot]
   is its members'. *)

let pair_of (a : cpart) (b : cpart) =
  let ga = a.kgen and gb = b.kgen in
  match (a.kkernel, b.kkernel) with
  | Some ka, Some kb
    when Array.length a.kcounts = 3
         && Shape.equal a.kcounts b.kcounts
         && Shape.equal ga.Generator.step gb.Generator.step
         && ga.Generator.step.(2) = 2
         && ga.Generator.lb.(0) = gb.Generator.lb.(0)
         && ga.Generator.lb.(1) = gb.Generator.lb.(1)
         && gb.Generator.lb.(2) = ga.Generator.lb.(2) + 1
         && Shape.equal a.kosteps b.kosteps
         && b.kobase = a.kobase + (a.kosteps.(2) / 2) -> (
      match Kernel.pair ~n:a.kcounts.(2) (a.kconst, ka, a.kclusters) (b.kconst, kb, b.kclusters) with
      | None -> None
      | Some (k, cl) ->
          let n = a.kcounts.(2) in
          let step = Array.copy ga.Generator.step and ub = Array.copy ga.Generator.ub in
          step.(2) <- 1;
          ub.(2) <- ga.Generator.lb.(2) + (2 * n);
          let fa = a.kfoot and fb = b.kfoot in
          Some
            { kgen = Generator.make ~step ~lb:ga.Generator.lb ~ub ();
              kcard = a.kcard + b.kcard;
              kconst = 0.0;
              kclusters = [| cl |];
              kkernel = Some k;
              kobase = a.kobase;
              kosteps = [| a.kosteps.(0); a.kosteps.(1); a.kosteps.(2) / 2 |];
              kcounts = [| a.kcounts.(0); a.kcounts.(1); 2 * n |];
              kfoot =
                { fwrites = [| ga; gb |];
                  finner = fa.finner + fb.finner;
                  fouter = fa.fouter + fb.fouter;
                  freads = [| fa.freads.(0) lor fb.freads.(0) |];
                };
            })
  | _ -> None

let pair_rows ~fresh compiled =
  let rec go = function
    | (Ccompiled a as ca) :: (Ccompiled b :: rest as after) -> (
        match pair_of a b with Some p -> Ccompiled p :: go rest | None -> ca :: go after)
    | c :: rest -> c :: go rest
    | [] -> []
  in
  if fresh then go compiled else compiled

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

let rebind_cpart (cpt : cpart) (rebuf : int -> Ndarray.buffer) =
  let kclusters = Array.mapi (fun j cl -> Cluster.with_buffer cl (rebuf j)) cpt.kclusters in
  { cpt with
    kclusters;
    kkernel = Option.map (Kernel.rebind_k3 kclusters ~koff0:0) cpt.kkernel;
  }

let strip_cpart (cp : cpart) = rebind_cpart cp (fun _ -> dummy_buf)

let bind_out (buf : Ndarray.buffer) (compiled : compiled list) =
  if List.exists is_border compiled then
    List.map
      (function
        | Ccompiled cp as c when is_border c -> Ccompiled (rebind_cpart cp (fun _ -> buf)) | c -> c)
      compiled
  else compiled

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
   space, so identity reads stay inside the piece at any pool size.
   (The emitted C never carries
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
        | Ccompiled cp as c when is_border c -> Some (strip_cpart cp, [| out_slot |])
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
