open Mg_ndarray
module Clock = Mg_smp.Clock
module Domain_pool = Mg_smp.Domain_pool
module Span = Mg_obs.Span

(* The executor driver.  The heavy lifting lives in the pipeline
   stages — Lower (bodies to plans), Cluster (reads to flat-index
   clusters), Kernel (recognition and loop nests), Plan (compiled
   parts and cached plans), Backend (piece scheduling), Mempool
   (buffer recycling), Tape (stepper tapes).  This module wires them:
   it owns graph traversal, the plan-cache lookup, output-buffer
   production and trace emission.  Hits and misses share one force
   path: only where the compiled parts come from differs.  Every
   buffer effect goes through a Tape hook, which records it while a
   stepper records. *)

type settings = {
  fusion : Fusion.config;
  factor : bool;
  line_buffers : bool;
  cfun : bool;
  native : string option;  (* AOT cache dir; [None] = native tier off *)
  reuse : bool;
  pooling : bool;
  cache : Tape.cache_entry Plan_cache.t;
  shards : Mg_obs.Scope.shards;
  pool : unit -> Domain_pool.t;
  par_threshold : int;
  env : string;
}

(* The optimisation-configuration fingerprint prefixed to every plan
   key, built once per settings value.  The thread count is
   deliberately absent: the parallel split is applied at execution
   time, so one plan serves any pool size. *)
let make_settings ~fusion ~factor ~line_buffers ~cfun ~native ~reuse ~pooling ~cache ~shards ~pool
    ~par_threshold =
  { fusion;
    factor;
    line_buffers;
    cfun;
    native;
    reuse;
    pooling;
    cache;
    shards;
    pool;
    par_threshold;
    env =
      Printf.sprintf "v1;fold=%b;ss=%b;st=%d;fac=%b;lb=%b;cf=%b;ru=%b;nt=%b;" fusion.Fusion.fold
        fusion.Fusion.split_strided fusion.Fusion.split_threshold factor line_buffers cfun reuse
        (native <> None);
  }

type fold_op = Fadd | Fmul | Fmax | Fmin | Fcustom of (float -> float -> float)

let backend st = { Backend.pool = st.pool (); par_threshold = st.par_threshold }

(* ------------------------------------------------------------------ *)
(* Ghost-shell loans.

   A barrier border node whose parts write only the ghost shell (every
   part a one-thick slab at index 0 or n-1 on some axis) and whose base
   has other readers does not copy the base's interior into a fresh
   buffer: it borrows the base's buffer ([Plan.OLend]).  The base's
   shell is saved into a pooled side buffer, the border parts run in
   place, and from then on the two nodes share one buffer — the
   borrower reads it whole, the base's readers need its interior and
   its old shell.  Both nodes carry the same [Ir.loan] record until the
   loan ends:

   - the borrower dies first: its shell is restored, and the buffer is
     the base's again ([drop]);
   - the base dies first: the borrower inherits the buffer as is;
   - a force holds the base while the loan is live ([hold_lent]): if no
     pending force holds the borrower, the borrower moves to a private
     copy and the shell is restored; else the holding force reads a
     private restored copy of its own and the loan stays live;
   - a force that held the base before it was lent reads the shared
     buffer as the base, so before its parts run — or when it holds
     the borrower too — the borrower moves to a private copy and the
     shell is restored ([settle_loans], [hold_lent]).  No pending force
     can hold the borrower then: the borrower was produced, and could
     only have been held, by that force's descendants, which have
     finished;
   - a force from outside the executor ([force]) finds no force
     pending: the borrower moves, or, when it escaped, the base does.

   While a loan is live, neither node's buffer is a reuse or steal
   target, and plan keys never alias the two nodes' buffers into one
   binding.  Every copy a loan costs is counted in
   [border.copied{reason}]: [escaped] or [lent] when [produce] cannot
   lend (the base escaped, or already takes part in a loan), [pinned]
   for a holding force's private copy, [base_held] when a held base
   ends the loan. *)

type copy_reason = Escaped | Pinned | Lent | Base_held

let border_lent = Mg_obs.Scope.counter_family "border.lent"

let border_copied =
  List.map
    (fun (r, name) ->
      (r, Mg_obs.Scope.counter_family ~labels:[ ("reason", name) ] "border.copied"))
    [ (Escaped, "escaped"); (Pinned, "pinned"); (Lent, "lent"); (Base_held, "base_held") ]

let note_copied st r = Tape.count st.shards (List.assoc r border_copied)

let end_loan ~pooling (l : Ir.loan) =
  Ir.set_loan l.Ir.lbase None;
  Ir.set_loan l.Ir.lborrower None;
  Tape.recycle ~pooling l.Ir.lshell

let copy_of ~pooling (a : Ndarray.t) =
  let c = Tape.alloc ~pooling (Ndarray.shape a) in
  Tape.blit ~src:a ~dst:c;
  c

(* End the loan with the borrower on a private copy: the shared buffer
   reads as the base again.  Legal only while no pending force holds
   the borrower. *)
let move_borrower ~pooling (l : Ir.loan) =
  let b = l.Ir.lborrower in
  if b.Ir.escaped then invalid_arg "Exec: a border escaped while its lent base was held";
  Option.iter (fun a -> Ir.set_cache b (copy_of ~pooling a)) b.Ir.cache;
  Tape.restore_shell l l.Ir.lbuf;
  end_loan ~pooling l

(* End the loan with the base on a private copy, its shell restored:
   the shared buffer is the borrower's alone.  Legal only while no
   pending force holds the base's buffer. *)
let move_base ~pooling (l : Ir.loan) =
  let c = copy_of ~pooling l.Ir.lbuf in
  Tape.restore_shell l c;
  Ir.set_cache l.Ir.lbase c;
  end_loan ~pooling l

let movable (b : Ir.node) = b.Ir.pin = 0 && not b.Ir.escaped

(* A lent base forced from outside any force (a top-level force of the
   base): no force is pending, so one side can always move. *)
let reclaim st (l : Ir.loan) =
  note_copied st Base_held;
  if movable l.Ir.lborrower then move_borrower ~pooling:st.pooling l
  else move_base ~pooling:st.pooling l

(* ------------------------------------------------------------------ *)
(* Pins and holds ([Ir.node.pin]): a force pins each source it
   materialises, under its own node id, until its compiled parts have
   run.  Fusion may fold a consumer [c] of source [p] into the forced
   node's parts (which then read [p]'s buffer directly) while another
   part materialises [c], whose release consumes [p]'s last edge — so
   [release_sources] only marks a pinned node (negated pin), and
   [unpin] performs the recycle it deferred.  A force that raises
   leaves its pins set: those nodes are never recycled into the pool
   (the GC frees them with the graph) nor stolen or reused in place,
   which costs buffers, not correctness.  A fold pins its sources the
   same way, under an id of its own. *)

type holds = {
  owner : int;
  mutable pinned : Ir.node list;  (* nodes this force pinned *)
  mutable held : (Ir.node * Ndarray.buffer) list;
      (* every node it materialised, with the buffer it was handed *)
  mutable temps : Ndarray.t list;  (* private copies it owns *)
}

let holds owner = { owner; pinned = []; held = []; temps = [] }
let pinned_elsewhere (m : Ir.node) ~owner = m.Ir.pin <> 0 && abs m.Ir.pin <> owner

(* Pin [m] for [h]'s force, unless an enclosing force already holds it. *)
let pin h (m : Ir.node) =
  if m.Ir.pin = 0 then begin
    Ir.set_pin m h.owner;
    h.pinned <- m :: h.pinned
  end

(* Drop [m]'s value: recycle its buffer, or end the loan it takes part
   in — a dying borrower hands the buffer back to the base with its
   shell restored, a dying base leaves it to the borrower. *)
let drop ~pooling (m : Ir.node) =
  match m.Ir.cache with
  | None -> ()
  | Some arr -> (
      Ir.clear_cache m;
      match m.Ir.loan with
      | None -> Tape.recycle ~pooling arr
      | Some l ->
          if l.Ir.lborrower == m then Tape.restore_shell l l.Ir.lbuf;
          end_loan ~pooling l)

let unpin ~pooling h =
  List.iter
    (fun (m : Ir.node) ->
      let deferred = m.Ir.pin < 0 in
      Ir.set_pin m 0;
      if deferred then drop ~pooling m)
    h.pinned;
  List.iter (Tape.recycle ~pooling) h.temps

(* [h]'s force holds [m], which takes part in the live loan [l]: settle
   what the loan owes the force, and return the buffer it reads. *)
let hold_lent st h (m : Ir.node) (l : Ir.loan) =
  let pooling = st.pooling in
  if l.Ir.lbase == m then
    if movable l.Ir.lborrower then begin
      note_copied st Base_held;
      move_borrower ~pooling l;
      l.Ir.lbuf
    end
    else
      (* One private copy per force: its parts all read the base
         through it. *)
      match
        List.find_opt
          (fun c -> List.exists (fun (n, b) -> n == m && b == c.Ndarray.data) h.held)
          h.temps
      with
      | Some c -> c
      | None ->
          note_copied st Pinned;
          let c = copy_of ~pooling l.Ir.lbuf in
          Tape.restore_shell l c;
          h.temps <- c :: h.temps;
          c
  else begin
    (* The borrower, held by a force that reads the shared buffer as
       the base. *)
    if List.exists (fun (b, buf) -> b == l.Ir.lbase && buf == l.Ir.lbuf.Ndarray.data) h.held
    then begin
      note_copied st Base_held;
      move_borrower ~pooling l
    end;
    Option.get m.Ir.cache
  end

(* Before a force's parts run: a base it held before the base was lent
   must read as the base again. *)
let settle_loans st h =
  List.iter
    (fun ((m : Ir.node), buf) ->
      match m.Ir.loan with
      | Some l when l.Ir.lbase == m && l.Ir.lbuf.Ndarray.data == buf ->
          note_copied st Base_held;
          move_borrower ~pooling:st.pooling l
      | _ -> ())
    h.held

(* ------------------------------------------------------------------ *)
(* Reference counting: consume one edge from [n] to each of its
   sources; recycle producer caches whose last consumer this was.      *)

let rec release_sources ~pooling (n : Ir.node) =
  if not n.Ir.released then begin
    (* One-shot: a recompute of [n] (its cache was recycled and a stale
       consumer re-forced it) must not consume its source edges a
       second time — undercounted refs make the in-place liveness
       checks treat live operands as dead. *)
    Ir.mark_released n;
    let consume src =
      Ir.decr_refs src;
      match src with
      | Ir.Node p when p.Ir.refs <= 0 && (not p.Ir.escaped) && p.Ir.pin <> 0 ->
          (* Its pinning force's parts still read the buffer: leave the
             recycle to [unpin]. *)
          Ir.set_pin p (-abs p.Ir.pin)
      | Ir.Node p when p.Ir.refs <= 0 && not p.Ir.escaped ->
          if p.Ir.cache <> None then drop ~pooling p
          else
            (* Dead without ever executing: fusion substituted every
               read of [p] into its consumers, so no execution will
               ever consume [p]'s own source edges.  Release them now
               or the producers [p] reads (fusion-materialised arrays
               in particular) stay pinned — and pooled buffers leak —
               for the life of the graph. *)
            release_sources ~pooling p
      | Ir.Node _ | Ir.Arr _ -> ()
    in
    let parts =
      match n.Ir.spec with
      | Ir.Genarray { parts; _ } -> parts
      | Ir.Modarray { base; parts } ->
          consume base;
          parts
    in
    List.iter (fun (p : Ir.part) -> List.iter consume (Ir.expr_sources p.Ir.body)) parts
  end

(* ------------------------------------------------------------------ *)
(* Buffer reuse: a dying operand whose buffer the output may alias.

   Legal when the operand is a direct node source of [n] with a cached
   value of the output's shape, never escaped, whose only outstanding
   consumer edges are exactly the ones [release_sources n] is about to
   consume, and whose reads in the compiled parts are all identity
   ([Plan.safe_to_alias]).  The edge count per source mirrors
   [release_sources]: one for a modarray base plus one per part whose
   deduplicated source list contains the node.  An operand pinned by an
   enclosing force is still read by that force's parts. *)

let reuse_candidate (n : Ir.node) shape (compiled : Plan.compiled list) =
  let base, parts =
    match n.Ir.spec with
    | Ir.Genarray { parts; _ } -> (None, parts)
    | Ir.Modarray { base; parts } -> (Some base, parts)
  in
  let edges_of p =
    let from_base = match base with Some (Ir.Node b) when b == p -> 1 | _ -> 0 in
    List.fold_left
      (fun acc (pt : Ir.part) ->
        if
          List.exists
            (function Ir.Node s -> s == p | Ir.Arr _ -> false)
            (Ir.expr_sources pt.Ir.body)
        then acc + 1
        else acc)
      from_base parts
  in
  let srcs =
    (match base with Some s -> [ s ] | None -> [])
    @ List.concat_map (fun (pt : Ir.part) -> Ir.expr_sources pt.Ir.body) parts
  in
  let seen = Hashtbl.create 4 in
  List.find_map
    (function
      | Ir.Arr _ -> None
      | Ir.Node p ->
          if Hashtbl.mem seen p.Ir.nid then None
          else begin
            Hashtbl.add seen p.Ir.nid ();
            match p.Ir.cache with
            | Some arr
              when (not p.Ir.escaped)
                   && p.Ir.loan = None
                   && (not (pinned_elsewhere p ~owner:n.Ir.nid))
                   && arr.Ndarray.shape = shape
                   && p.Ir.refs = edges_of p
                   && Plan.safe_to_alias arr.Ndarray.data compiled ->
                Some p
            | _ -> None
          end)
    srcs

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

(* Distinct kernel paths of a force, for the span's [kernel] attribute
   (only built when a span is active or a stepper records). *)
let kernels_of (parts : Plan.compiled list) =
  String.concat ","
    (List.sort_uniq compare
       (List.map
          (function
            | Plan.Ccompiled cp -> (
                match cp.Plan.kkernel with
                | Some k -> Kernel.k3_name k
                | None -> "lin-generic")
            | Plan.Cclosure _ -> "cfun")
          parts))

(* ------------------------------------------------------------------ *)
(* Output buffers                                                      *)

(* Lend [b]'s buffer [arr] to its border [n]: save the shell, then
   share.  Under debug, the interior's checksum is kept for the
   restore's check, and the buffer must not sit in a free slot. *)
let lend st (n : Ir.node) (b : Ir.node) arr =
  let shell = Tape.alloc ~pooling:st.pooling [| Lower.shell_size (Ndarray.shape arr) |] in
  let lsum = Tape.save_shell arr shell in
  let l =
    { Ir.lbase = b;
      lborrower = n;
      lbuf = arr;
      lshell = shell;
      lsum;
    }
  in
  Ir.set_loan b (Some l);
  Ir.set_loan n (Some l);
  Tape.count st.shards border_lent;
  arr

(* The output buffer of [n]'s force, hit or miss.  [hold] materialises
   a base source; every base the mode names is already held, so it only
   reads the held buffer.

   The cache key records a cached operand's shape and strides, not its
   liveness, so a reuse replays only when this graph's operand is still
   a dying unescaped node with exactly the edges the decision assumed;
   otherwise the force writes a fresh buffer (reuse is a pure
   optimisation: results are bitwise identical).  A steal needs no such
   check — the key records that its base is unmaterialised and that all
   of the base's reference-count edges are this node's, so no other
   force has materialised, let alone pinned, it — unless the base
   itself borrowed its buffer.  A loan is re-checked on every force: a
   base that escaped or already takes part in a loan is copied instead
   (the border's plan has no complement parts, so a copy of the whole
   base is what it needs). *)
let produce st (n : Ir.node) ~hold parts (mode : Ir.source Plan.out_mode) =
  let fresh () = Tape.alloc ~pooling:st.pooling n.Ir.nshape in
  let copy reason src =
    note_copied st reason;
    let out = fresh () in
    Tape.blit ~src ~dst:out;
    out
  in
  match mode with
  | Plan.OFresh -> fresh ()
  | Plan.OFill d ->
      let out = fresh () in
      Tape.fill out d;
      out
  | Plan.OBlit src ->
      let out = fresh () in
      Tape.blit ~src:(hold src) ~dst:out;
      out
  | Plan.OComplement (src, lb, ub) ->
      let out = fresh () in
      Tape.copy_complement (hold src) out lb ub;
      out
  | Plan.OSteal src -> (
      let arr = hold src in
      match src with Ir.Node b when b.Ir.loan <> None -> copy Lent arr | _ -> arr)
  | Plan.OLend src -> (
      let arr = hold src in
      match src with
      | Ir.Node b when b.Ir.escaped -> copy Escaped arr
      | Ir.Node b when b.Ir.loan = None -> lend st n b arr
      | Ir.Node _ -> copy Lent arr
      | Ir.Arr _ -> copy Escaped arr)
  | Plan.OReuse { slot = Ir.Node b as src; edges }
    when (not b.Ir.escaped) && b.Ir.refs = edges && b.Ir.loan = None
         && not (pinned_elsewhere b ~owner:n.Ir.nid) ->
      let arr = hold src in
      if Mempool.get_debug () && not (Plan.safe_to_alias arr.Ndarray.data parts) then
        failwith "Exec: hazardous in-place aliasing decision";
      Tape.reuse arr;
      arr
  | Plan.OReuse _ -> fresh ()

(* The source whose buffer [out] took over (stolen base or reused
   operand), if any.  A lent base keeps its buffer. *)
let taken_over (mode : Ir.source Plan.out_mode) out =
  match mode with
  | Plan.OSteal (Ir.Node b) | Plan.OReuse { slot = Ir.Node b; _ } -> (
      match b.Ir.cache with Some a when a == out -> Some b | _ -> None)
  | _ -> None

let mode_name : _ Plan.out_mode -> string = function
  | Plan.OFresh -> "fresh"
  | Plan.OFill _ -> "fill"
  | Plan.OBlit _ -> "blit"
  | Plan.OComplement _ -> "complement"
  | Plan.OSteal _ -> "steal"
  | Plan.OLend _ -> "lend"
  | Plan.OReuse _ -> "reuse"

(* Whether every part writes only the ghost shell of [shape]: each
   generator is a one-thick slab at index 0 or n-1 on some axis. *)
let shell_parts shape (parts : Ir.part list) =
  List.for_all (fun (p : Ir.part) -> Plan.shell_slab shape p.Ir.gen) parts

(* ------------------------------------------------------------------ *)
(* Forcing

   Every force goes one way: the plan cache either supplies a stored
   plan ([replay]) or the pipeline compiles one ([compile]); both hand
   their parts and output mode to [finish], which produces the output,
   runs the parts and releases the force's sources. *)

(* Where a force's parts came from: a stored plan, or the pipeline —
   with the key and bindings to store the result under when the graph
   is cacheable. *)
type origin =
  | Hit of Plan.cplan
  | Compiled of {
      record : (string * Ir.source array) option;
      recorded : (Ir.node * Ndarray.buffer) list;
      compile_cost : float;
    }

(* A force from outside the executor: a lent base must read as itself.
   Inside a recording, only the stepper's own force of the body's result
   is one; any other lets a value leave the body. *)
let rec force st (n : Ir.node) : Ndarray.t =
  Tape.leave ();
  (match n.Ir.loan with
  | Some l when l.Ir.lbase == n && n.Ir.cache <> None -> reclaim st l
  | _ -> ());
  compute st n

and compute st (n : Ir.node) =
  match n.Ir.cache with
  | Some a ->
      Tape.reached n;
      a
  | None -> (
      Tape.computing n;
      let key = Plan_cache.key_of_graph ~env:st.env ~fold:st.fusion.Fusion.fold n in
      let sp = Span.start () in
      let h = holds n.Ir.nid in
      let hold = hold st h in
      match Option.map (fun (k, bindings) -> (Plan_cache.find st.cache k, bindings)) key with
      | Some (Some (Tape.Cached p), bindings) -> replay st sp n ~hold h p bindings
      | Some ((None | Some (Tape.Taped _)), _) -> compile st sp n ~hold h key
      | Some (Some Tape.Uncacheable, _) | None ->
          Plan_cache.note_uncacheable st.shards;
          compile st sp n ~hold h None)

(* Materialise a source for [h]'s force and pin it until the force's
   parts have run. *)
and hold st h = function
  | Ir.Arr a -> a
  | Ir.Node m ->
      let arr = compute st m in
      let arr = match m.Ir.loan with None -> arr | Some l -> hold_lent st h m l in
      pin h m;
      h.held <- (m, arr.Ndarray.data) :: h.held;
      arr

(* A hit: hold the plan's slots in the order the compiling force
   materialised them, then rebind the stored parts to those buffers. *)
and replay st sp n ~hold h (p : Plan.cplan) bindings =
  Array.iter (fun i -> ignore (hold bindings.(i))) p.Plan.corder;
  let parts =
    Array.fold_right
      (fun ((cpt : Plan.cpart), slots) acc ->
        Plan.Ccompiled
          (Plan.rebind_cpart cpt (fun j ->
               let s = slots.(j) in
               if s = Plan.out_slot then Plan.dummy_buf else (hold bindings.(s)).Ndarray.data))
        :: acc)
      p.Plan.cparts []
  in
  finish st sp n ~hold h parts ~elements:p.Plan.celements
    (Plan.map_mode (Array.get bindings) p.Plan.cmode)
    (Hit p)

(* A miss, or an uncacheable graph: the full pipeline. *)
and compile st sp (n : Ir.node) ~hold h record =
  let shape = n.Ir.nshape in
  (* Update-in-place: a barrier modarray (the periodic-border nodes
     of the array library, whose parts provably read outside their
     write sets) whose base node has no consumer other than this
     node steals the base's freshly computed buffer instead of
     copying it — SAC's reference-count-driven reuse.  When the base
     has other readers and the parts write only its ghost shell, the
     node borrows the buffer instead: the base is materialised, as
     the copy path's fusion would materialise it, and lends. *)
  let stolen, lent =
    match n.Ir.spec with
    | Ir.Modarray { base = Ir.Node b; parts } when n.Ir.barrier ->
        let base_readers =
          List.length
            (List.filter
               (fun (p : Ir.part) ->
                 List.exists
                   (function Ir.Node s -> s == b | Ir.Arr _ -> false)
                   (Ir.expr_sources p.Ir.body))
               parts)
        in
        if b.Ir.cache = None && b.Ir.refs = 1 + base_readers then begin
          ignore (hold (Ir.Node b));
          (Some b, None)
        end
        else if
          shell_parts shape parts && (b.Ir.cache <> None || not (Fusion.wants_fold st.fusion b))
        then begin
          ignore (hold (Ir.Node b));
          (None, Some b)
        end
        else (None, None)
    | _ -> (None, None)
  in
  (* From O2, a stolen or lent periodic border ([Plan.periodic_border])
     runs as one walk ([Plan.border]): its base's interior is already
     in the output, and the walk copies it into the shell.  A copied
     border keeps its parts, which may fold the base: each folded face
     keeps the arithmetic its own kernel gives it. *)
  let walk =
    match n.Ir.spec with
    | Ir.Modarray { base; parts }
      when (stolen <> None || lent <> None)
           && st.fusion.Fusion.fold
           && Plan.periodic_border shape base parts ->
        Some parts
    | _ -> None
  in
  (* Lower modarray to a fully-covering genarray when all parts are
     dense boxes: the complement reads the base element-wise, which
     the optimiser can fold instead of copying.  A stolen or lent base
     needs no complement parts at all — its values are already in
     place. *)
  let raw_parts, base_src, default =
    match n.Ir.spec with
    | Ir.Genarray { default; parts } -> (parts, None, default)
    | Ir.Modarray { parts; _ } when stolen <> None || lent <> None ->
        ((if walk = None then parts else []), None, 0.0)
    | Ir.Modarray { base; parts } ->
        if List.for_all (fun (p : Ir.part) -> Generator.is_dense p.Ir.gen) parts then
          (parts @ Lower.complement_parts shape base parts, None, 0.0)
        else (parts, Some base, 0.0)
  in
  Option.iter (fun src -> ignore (hold src)) base_src;
  (* Optimise and compile.  What a later hit saves is the pipeline's
     own time: fusion's producer forces are timed and subtracted.
     These clock reads run whether or not the force is observed, but
     only on the (already expensive) miss path. *)
  let held = ref 0.0 in
  let fusion_hold m =
    let t = Clock.now () in
    let arr = hold (Ir.Node m) in
    held := !held +. (Clock.now () -. t);
    arr
  in
  let cstart = Clock.now () in
  let parts =
    Span.with_ ~name:"wl:fusion" (fun () ->
        List.concat_map
          (fun (p : Ir.part) -> Fusion.optimize st.fusion ~force:fusion_hold p.Ir.gen p.Ir.body)
          raw_parts)
  in
  let compiled =
    List.filter_map
      (fun (p : Ir.part) ->
        if Generator.is_empty p.Ir.gen then None
        else
          Some
            (Plan.compile_part ~factor:st.factor ~line_buffers:st.line_buffers ~cfun:st.cfun
               ~native:st.native ~oshape:shape p))
      parts
    @ match walk with Some parts -> [ Plan.border ~oshape:shape parts ] | None -> []
  in
  let compile_cost = Clock.now () -. cstart -. !held in
  let elements = List.fold_left (fun acc c -> acc + Plan.compiled_card c) 0 compiled in
  let mode =
    match (stolen, lent, base_src, compiled) with
    | Some b, _, _, _ -> Plan.OSteal (Ir.Node b)
    | None, Some b, _, _ -> Plan.OLend (Ir.Node b)
    | None, None, None, _ when elements >= Shape.num_elements shape -> (
        match if st.reuse then reuse_candidate n shape compiled else None with
        | Some p -> Plan.OReuse { slot = Ir.Node p; edges = p.Ir.refs }
        | None -> Plan.OFresh)
    | None, None, None, _ -> Plan.OFill default
    | None, None, Some src, [ c ] when Generator.is_dense (Plan.compiled_gen c) ->
        (* Non-lowered modarray with one dense part: only the
           complement of the part needs the base. *)
        let g = Plan.compiled_gen c in
        Plan.OComplement (src, Array.copy g.Generator.lb, Array.copy g.Generator.ub)
    | None, None, Some src, _ -> Plan.OBlit src
  in
  let movable = match mode with Plan.OSteal _ | Plan.OLend _ -> false | _ -> true in
  let compiled =
    Span.with_ ~name:"wl:kernel-choice" (fun () -> Plan.group_shell shape ~movable compiled)
  in
  (* [h.held]: every node this force materialised, with the buffer it
     had then, newest first.  The plan's slots resolve through these
     buffers, and their order is the replay's forcing order. *)
  finish st sp n ~hold h compiled ~elements mode
    (Compiled { record; recorded = List.rev h.held; compile_cost })

(* Shared by hits and misses: produce the output, run the parts, store
   a compiled plan, then let the in-place source, the pins and the
   source edges go. *)
and finish st sp (n : Ir.node) ~hold h parts ~elements mode origin =
  let shape = n.Ir.nshape in
  settle_loans st h;
  let out = produce st n ~hold parts mode in
  let parts = Plan.bind_out out.Ndarray.data parts in
  let inplace = taken_over mode out in
  let lent = match n.Ir.loan with Some l -> l.Ir.lborrower == n | None -> false in
  Tape.run (backend st) out parts;
  Ir.set_cache n out;
  (* Store the plan before the pins drop: [unpin] and
     [release_sources] may recycle the producers' buffers. *)
  let outcome =
    match origin with
    | Hit p ->
        Plan_cache.note_hit st.shards ~saved:p.Plan.ccompile;
        "hit"
    | Compiled { record = None; _ } -> "uncacheable"
    | Compiled { record = Some (key, bindings); recorded; compile_cost } -> (
        match Plan.assemble ~bindings ~recorded ~mode ~elements ~compile_cost parts with
        | Some p ->
            Plan_cache.add st.cache ~shards:st.shards key (Tape.Cached p);
            Plan_cache.note_miss st.shards;
            "miss"
        | None ->
            Plan_cache.add st.cache ~shards:st.shards key Tape.Uncacheable;
            Plan_cache.note_uncacheable st.shards;
            "uncacheable")
  in
  (* Only now may the in-place source forget its (overwritten) buffer,
     which is live as [n]'s value. *)
  Option.iter Ir.clear_cache inplace;
  unpin ~pooling:st.pooling h;
  release_sources ~pooling:st.pooling n;
  let tag = match n.Ir.spec with Ir.Genarray _ -> "wl:genarray" | Ir.Modarray _ -> "wl:modarray" in
  let extent = if Shape.rank shape > 0 then shape.(0) else 0 in
  let bytes_alloc = if Option.is_none inplace && not lent then 8 * Shape.num_elements shape else 0 in
  let out_name () =
    match (mode, inplace) with
    | Plan.OReuse _, None -> "fresh"
    | (Plan.OSteal _ | Plan.OLend _), None when not lent -> "blit"
    | _ -> mode_name mode
  in
  if Span.active sp || Tape.live () then
    Tape.forced sp ~cache:outcome
      { Tape.tag; elements; extent; bytes_alloc; kernel = kernels_of parts; out = out_name () };
  out

(* ------------------------------------------------------------------ *)
(* Fold                                                                *)

let apply_op = function
  | Fadd -> ( +. )
  | Fmul -> ( *. )
  | Fmax -> Float.max
  | Fmin -> Float.min
  | Fcustom f -> f

(* A fold holds and pins the nodes it materialises like a force, until
   its body has been evaluated. *)
let eval_fold st ~op ~neutral gen body =
  Tape.leave ();
  let sp = Span.start () in
  let h = holds (Ir.next_id ()) in
  let parts =
    Span.with_ ~name:"wl:fusion" (fun () ->
        Fusion.optimize st.fusion ~force:(fun m -> hold st h (Ir.Node m)) gen body)
  in
  settle_loans st h;
  let f = apply_op op in
  let interp acc (p : Ir.part) =
    let cf = Lower.closure_of p.Ir.body in
    let acc = ref acc in
    Generator.iter p.Ir.gen (fun iv -> acc := f !acc (cf iv));
    !acc
  in
  let result =
    List.fold_left
      (fun acc (p : Ir.part) ->
        match Lower.plan_of p.Ir.body with
        | Lower.Plin lf -> (
            match Cluster.axes_of_gen p.Ir.gen with
            | Some ax -> (
                match Cluster.clusterize ax ~factor:st.factor lf with
                | Some clusters ->
                    Kernel.fold_lin ~op:f ~init:acc ~const:lf.Linform.const clusters
                      ~counts:ax.Cluster.counts
                | None -> interp acc p)
            | None -> interp acc p)
        | Lower.Pfun cf ->
            let acc = ref acc in
            Generator.iter p.Ir.gen (fun iv -> acc := f !acc (cf iv));
            !acc)
      neutral parts
  in
  unpin ~pooling:st.pooling h;
  if Span.active sp then begin
    let counts = Generator.counts gen in
    Span.stop ~name:"wl:fold" sp
      ~attrs:
        [ ("tag", "wl:fold"); ("elements", string_of_int (Generator.cardinal gen));
          ("extent", string_of_int (if Array.length counts = 0 then 0 else counts.(0))); ("bytes", "0") ]
  end;
  result

(* ------------------------------------------------------------------ *)
(* Staged calls ([Tape.step]): the per-force path forces the body's
   result without escaping, as [Wl.materialize]. *)

let materialize st n = Mempool.keep (force st n)

let step st s params input =
  Tape.step ~cache:st.cache ~shards:st.shards ~pooling:st.pooling ~env:st.env ~ctx:(backend st)
    ~force:(materialize st) s params input

(* ------------------------------------------------------------------ *)
(* Scoped reads                                                        *)

let read st (n : Ir.node) f =
  let fresh = n.Ir.cache = None in
  let a = force st n in
  let v = f a in
  (match n.Ir.cache with
  | Some a' when fresh && a' == a && n.Ir.refs <= 0 && (not n.Ir.escaped) && n.Ir.loan = None && n.Ir.pin = 0 ->
      drop ~pooling:st.pooling n
  | _ -> ());
  v
