open Mg_ndarray
module Span = Mg_obs.Span

(* ------------------------------------------------------------------ *)
(* Tapes: one recorded call of a [Wl.staged] stepper.

   While a stepper's body is forced through the per-force path
   ([Exec]), every buffer effect of that path is appended, in order, to
   the calling domain's recorder, over symbolic buffer ids: the call's
   bound buffers — the input, then the parameters — take the first
   ids, and each pool allocation gets a new one.  A later call whose
   bound buffers have the recorded signature runs the tape ([replay]):
   the same pool traffic and the same compiled parts, rebound to this
   call's buffers, in the same order — no graph, no key, no plan
   lookup, no holds.  Every output mode the per-force path picks
   (reuse, steal, lend, copy) follows from the graph's reference
   counts and materialisation states, which the body rebuilds
   identically from bound buffers of the same signature, so the tape
   is what that path would do again.  Each effect below is written
   once: the per-force path calls it through its recording hook, the
   replay directly. *)

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
  | Blit of int * int
  | Complement of int * int * Shape.t * Shape.t
  | Save_shell of int * int
  | Restore_shell of int * int
  | Reuse of int
  | Count of Mg_obs.Metrics.counter Mg_obs.Scope.family
  | Run of int * (Plan.cpart * int array) array
  | Forced of seen

let written = function
  | Recycle i | Fill (i, _) | Blit (_, i) | Complement (_, i, _, _) | Save_shell (i, _)
  | Restore_shell (i, _) | Reuse i | Run (i, _) ->
      Some i
  | Alloc _ | Count _ | Forced _ -> None

type tape = {
  tstepper : int;
  tops : op array;
  tbufs : int;
  tresult : int;
  tinput : int option;
  trefs : int;
  telided : int array;
}

(* What an engine's plan cache stores per key: a replayable plan, a
   tombstone recording that this key's graph cannot be assembled (so
   later forces skip the assembly attempt), or a stepper's tape. *)
type cache_entry = Cached of Plan.cplan | Uncacheable | Taped of tape

(* ------------------------------------------------------------------ *)
(* Tape liveness.

   One backward pass over a recorded tape drops the stores no later op
   reads.  Per buffer id it tracks two regions, the interior and the
   one-thick ghost shell, each live or dead.  At the tape's end the
   result and the handed-back input are live in full; every other
   buffer is dead (parameters are never written).  Walking backward:

   - a [Run] part (a shell group is one) is dropped when every region
     it writes is dead; a kept part makes the regions it reads live.
     The parts of one [Run] are visited last to first, so a part a
     later part of the same force reads stays;
   - a [Run] kills a region of its output when its parts cover it
     exactly: their elements inside it sum to its size, and their
     generators are pairwise disjoint boxes;
   - a [Restore_shell] is dropped when the restored shell is dead, a
     [Save_shell] when no kept restore reads its side buffer, and a
     [Fill] when its buffer is dead in both regions;
   - [Blit], [Complement], [Reuse], [Count] and [Forced] stay;
   - last, the [Alloc] and [Recycle] of a buffer no kept op touches go.

   Reads are over-approximated by their bounding boxes, met with the
   two regions when the part is compiled ([Plan.foot]), so the pass
   only combines bits.  It drops only stores no later op reads: every
   value a kept op reads is computed as before, so results are bitwise
   unchanged.  A [Forced] op keeps its recorded span attributes, so a
   replay shows the same operations whatever it elides. *)

let region_interior = Plan.region_interior
and region_shell = Plan.region_shell

(* The regions of [shape] outside the box [lb, ub). *)
let complement_regions (shape : Shape.t) (lb : Shape.t) (ub : Shape.t) =
  let inner = ref false and shell = ref false in
  for j = 0 to Array.length shape - 1 do
    if lb.(j) > 1 || ub.(j) < shape.(j) - 1 then inner := true;
    if lb.(j) > 0 || ub.(j) < shape.(j) then shell := true
  done;
  (if !inner && Plan.interior_size shape > 0 then region_interior else 0)
  lor if !shell then region_shell else 0

(* Boxes lying in distinct cells of [shape]'s partition into {0},
   [1, n-2] and {n-1} per axis are pairwise disjoint: the test that
   settles a shell group or a border in one pass over its boxes.
   [cells shape seen gens] adds the cells of [gens] to the mask [seen]
   of cells taken; -1 once a box spans cells or takes a cell twice. *)
let cells (shape : Shape.t) seen (gens : Generator.t array) =
  let seen = ref seen in
  for i = 0 to Array.length gens - 1 do
    if !seen >= 0 then begin
      let g = gens.(i) and c = ref 0 in
      for j = 0 to Array.length shape - 1 do
        let lb = g.Generator.lb.(j) and ub = g.Generator.ub.(j) and n = shape.(j) in
        let k =
          if ub <= 1 then 0 else if lb >= n - 1 then 2 else if lb >= 1 && ub <= n - 1 then 1 else -1
        in
        c := if !c < 0 || k < 0 then -1 else (!c * 3) + k
      done;
      seen := if !c < 0 || !c > 61 || !seen land (1 lsl !c) <> 0 then -1 else !seen lor (1 lsl !c)
    end
  done;
  !seen

let rec disjoint_to (g : Generator.t) (ws : Generator.t array) k =
  k = Array.length ws || (Plan.disjoint g ws.(k) && disjoint_to g ws (k + 1))

let rec all_disjoint (a : Generator.t array) (b : Generator.t array) k =
  k = Array.length a || (disjoint_to a.(k) b 0 && all_disjoint a b (k + 1))

let rec pairwise_disjoint (ws : Generator.t array) i =
  i >= Array.length ws || (disjoint_to ws.(i) ws (i + 1) && pairwise_disjoint ws (i + 1))

(* Whether the parts writing into a region ([within] counts a part's
   elements there) do so through pairwise disjoint boxes: at once when
   their boxes lie in distinct cells, else pair by pair.  A part
   writing nothing there cannot overlap another one inside it. *)
let parts_disjoint oshape (parts : (Plan.cpart * int array) array) within =
  let n = Array.length parts and seen = ref 0 in
  for p = 0 to n - 1 do
    let f = (fst parts.(p)).Plan.kfoot in
    if within f > 0 then seen := cells oshape !seen f.Plan.fwrites
  done;
  !seen >= 0
  ||
  let ok = ref true in
  for p = 0 to n - 1 do
    let fp = (fst parts.(p)).Plan.kfoot in
    if !ok && within fp > 0 then begin
      ok := pairwise_disjoint fp.Plan.fwrites 0;
      for q = p + 1 to n - 1 do
        let fq = (fst parts.(q)).Plan.kfoot in
        if !ok && within fq > 0 then ok := all_disjoint fp.Plan.fwrites fq.Plan.fwrites 0
      done
    end
  done;
  !ok

(* The kinds [telided] counts, in order. *)
let elided_ops = [| "part"; "save"; "restore"; "fill" |]

let e_part = 0
and e_save = 1
and e_restore = 2
and e_fill = 3

let all_regions = region_interior lor region_shell

(* A [Run] writing [o], its parts visited last to first: the kept
   ones make what they read live.  Returns each part's flag, ['\001']
   when kept; [live.(o)] becomes what is live before the [Run].  When
   [o] was allocated by the op before ([fresh]), no op sees what the
   [Run] kills, and the cover is not computed. *)
let prune_run ~shapes ~live ~touched ~elided ~fresh o (parts : (Plan.cpart * int array) array) =
  let np = Array.length parts in
  let kept = Bytes.make np '\000' in
  let after = live.(o) in
  (* [seen]: the regions of [o] live after the part visited; [read]:
     those the kept parts read. *)
  let seen = ref after and read = ref 0 and inner = ref 0 and outer = ref 0 in
  for p = np - 1 downto 0 do
    let cp, ids = parts.(p) in
    let f = cp.Plan.kfoot in
    inner := !inner + f.Plan.finner;
    outer := !outer + f.Plan.fouter;
    let writes =
      (if f.Plan.finner > 0 then region_interior else 0)
      lor if f.Plan.fouter > 0 then region_shell else 0
    in
    if writes land !seen <> 0 then begin
      Bytes.unsafe_set kept p '\001';
      Bytes.unsafe_set touched o '\001';
      for c = 0 to Array.length f.Plan.freads - 1 do
        let r = f.Plan.freads.(c) and i = ids.(c) in
        if r <> 0 then begin
          Bytes.unsafe_set touched i '\001';
          if i = o then begin
            seen := !seen lor r;
            read := !read lor r
          end
          else live.(i) <- live.(i) lor r
        end
      done
    end
    else elided.(e_part) <- elided.(e_part) + 1
  done;
  let oshape = shapes.(o) in
  let size_in = Plan.interior_size oshape in
  let kill =
    if fresh then 0
    else
      let covered region full within =
        if after land region <> 0 && full && parts_disjoint oshape parts within then region else 0
      in
      covered region_interior (!inner = size_in) (fun f -> f.Plan.finner)
      lor covered region_shell
            (!outer = Shape.num_elements oshape - size_in)
            (fun f -> f.Plan.fouter)
  in
  live.(o) <- (after land lnot kill) lor !read;
  kept

let prune ~(bound : Shape.t array) (t : tape) =
  let ops = t.tops and nbufs = t.tbufs and nops = Array.length t.tops in
  let shapes = Array.make nbufs [||] in
  Array.blit bound 0 shapes 0 (Array.length bound);
  for k = 0 to nops - 1 do
    match ops.(k) with Alloc (i, shape) -> shapes.(i) <- shape | _ -> ()
  done;
  let live = Array.make nbufs 0 and touched = Bytes.make nbufs '\000' in
  let touch i = Bytes.unsafe_set touched i '\001' in
  live.(t.tresult) <- all_regions;
  touch t.tresult;
  (match t.tinput with
  | Some i ->
      live.(i) <- all_regions;
      touch i
  | None -> ());
  let keep = Bytes.make nops '\001' in
  (* The [Run]s that keep some of their parts, with each part's flag,
     in op order (the walk goes backward). *)
  let partial = ref [] in
  let elided = Array.make (Array.length elided_ops) 0 in
  let drop k e =
    Bytes.set keep k '\000';
    elided.(e) <- elided.(e) + 1
  in
  for k = nops - 1 downto 0 do
    match ops.(k) with
    | Alloc (i, _) | Recycle i -> live.(i) <- 0
    | Fill (i, _) ->
        if live.(i) = 0 then drop k e_fill
        else begin
          live.(i) <- 0;
          touch i
        end
    | Blit (src, dst) ->
        live.(dst) <- 0;
        live.(src) <- all_regions;
        touch src;
        touch dst
    | Complement (src, dst, lb, ub) ->
        live.(src) <- live.(src) lor complement_regions shapes.(src) lb ub;
        touch src;
        touch dst
    | Save_shell (b, sh) ->
        if live.(sh) = 0 then drop k e_save
        else begin
          live.(sh) <- 0;
          live.(b) <- live.(b) lor region_shell;
          touch b;
          touch sh
        end
    | Restore_shell (b, sh) ->
        if live.(b) land region_shell = 0 then drop k e_restore
        else begin
          live.(b) <- live.(b) land lnot region_shell;
          live.(sh) <- all_regions;
          touch b;
          touch sh
        end
    | Reuse i -> touch i
    | Count _ | Forced _ -> ()
    | Run (o, parts) ->
        let fresh = k > 0 && match ops.(k - 1) with Alloc (i, _) -> i = o | _ -> false in
        let kept = prune_run ~shapes ~live ~touched ~elided ~fresh o parts in
        if not (Bytes.contains kept '\001') then Bytes.set keep k '\000'
        else if Bytes.contains kept '\000' then partial := (k, kept) :: !partial
  done;
  let nbound = Array.length bound in
  for k = 0 to nops - 1 do
    match ops.(k) with
    | (Alloc (i, _) | Recycle i) when i >= nbound && Bytes.get touched i = '\000' ->
        Bytes.set keep k '\000'
    | _ -> ()
  done;
  if Array.for_all (fun n -> n = 0) elided then { t with telided = elided }
  else begin
    let dropped = Bytes.fold_left (fun n c -> if c = '\000' then n + 1 else n) 0 keep in
    let out = Array.make (nops - dropped) ops.(0) in
    let n = ref 0 in
    for k = 0 to nops - 1 do
      if Bytes.get keep k = '\001' then begin
        out.(!n) <-
          (match (ops.(k), !partial) with
          | Run (o, parts), (k', kept) :: rest when k' = k ->
              partial := rest;
              let kept_part p _ = Bytes.get kept p = '\001' in
              Run (o, Array.of_list (List.filteri kept_part (Array.to_list parts)))
          | op, _ -> op);
        incr n
      end
    done;
    { t with tops = out; telided = elided }
  end

(* ------------------------------------------------------------------ *)
(* The recorder.

   A recording is refused, and the call stays on the per-force path,
   when the tape could not stand for the call: the graph reaches a
   materialised node or an array that is not bound, or writes or
   releases a parameter ([Captured]), a part runs as an interpreted
   closure ([Opaque] bodies, [Closure] otherwise), a value leaves the
   graph inside the body ([Escape]: a top-level force or a fold), or
   the domain is already recording ([Nested]). *)

type reason = Unrecorded | Signature | Captured | Opaque | Closure | Escape | Nested

let stage_replays = Mg_obs.Scope.counter_family "stage.replays"

let stage_elided =
  Array.map
    (fun op -> Mg_obs.Scope.counter_family ~labels:[ ("op", op) ] "stage.elided")
    elided_ops

let stage_fallback =
  List.map
    (fun (r, name) ->
      (r, Mg_obs.Scope.counter_family ~labels:[ ("reason", name) ] "stage.fallback"))
    [ (Unrecorded, "unrecorded");
      (Signature, "signature");
      (Captured, "captured");
      (Opaque, "opaque");
      (Closure, "closure");
      (Escape, "escape");
      (Nested, "nested");
    ]

type recorder = {
  bound : Ir.source array;  (* the input, then the parameters *)
  brefs : int array;  (* each bound source's reference count before the body ran *)
  roots : int array;  (* each bound source's buffer id *)
  mutable ops : op list;  (* newest first *)
  mutable live : (Ndarray.buffer * int) list;  (* buffer -> id, newest first *)
  mutable nbufs : int;
  mutable computed : Ir.node list;  (* the nodes forced inside the recording *)
  mutable refused : reason option;
  mutable forcing : bool;  (* the stepper's own force of the body's result is next *)
}

let recorder_key : recorder option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* The calling domain's recorder, unless it has refused. *)
let recording () =
  match !(Domain.DLS.get recorder_key) with Some r as o when r.refused = None -> o | _ -> None

let live () = Option.is_some (recording ())
let push r op = r.ops <- op :: r.ops

let new_id r b =
  let i = r.nbufs in
  r.nbufs <- i + 1;
  r.live <- (b, i) :: r.live;
  i

(* The id of a buffer the tape touches: a bound or allocated one.  Any
   other buffer belongs to a value outside the call, which no tape may
   hold. *)
let id_of_buffer r (b : Ndarray.buffer) =
  match List.assq_opt b r.live with
  | Some i -> i
  | None ->
      r.refused <- Some Captured;
      -1

let id_of r (a : Ndarray.t) = id_of_buffer r a.Ndarray.data

let leave () =
  match recording () with
  | Some r when r.forcing -> r.forcing <- false
  | Some r -> r.refused <- Some Escape
  | None -> ()

let computing n = match recording () with Some r -> r.computed <- n :: r.computed | None -> ()

let is_bound r n = Array.exists (function Ir.Node m -> m == n | Ir.Arr _ -> false) r.bound

let reached n =
  match recording () with
  | Some r when not (List.memq n r.computed || is_bound r n) -> r.refused <- Some Captured
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Buffer effects: each is performed by one function, which the
   per-force path reaches through a recording hook and the replay
   directly. *)

let note shards fam = Mg_obs.Metrics.incr (Mg_obs.Scope.shard shards fam)

(* A loan's shell save and restore, with their debug tripwires: the
   lent buffer must not sit in a free slot, and the interior must come
   back as it was lent ([save] returns its checksum under debug). *)
let save arr shell =
  Lower.save_shell arr shell;
  if Mempool.get_debug () then begin
    Mempool.assert_unpooled arr.Ndarray.data ~ctx:"lent base";
    Lower.interior_checksum arr
  end
  else 0

let restore arr shell sum =
  Lower.restore_shell arr shell;
  if Mempool.get_debug () then begin
    Mempool.assert_unpooled arr.Ndarray.data ~ctx:"restored ghost shell";
    if Lower.interior_checksum arr <> sum then
      failwith "Exec: a lent base's interior changed during its loan"
  end

let reuse_in_place (arr : Ndarray.t) =
  if Mempool.get_debug () then Mempool.assert_unpooled arr.Ndarray.data ~ctx:"reuse output";
  Mempool.note_reuse ()

let stop_force sp ~cache f =
  if Span.active sp then
    Span.stop ~name:"wl:force" sp
      ~attrs:
        [ ("tag", f.tag); ("elements", string_of_int f.elements); ("extent", string_of_int f.extent);
          ("bytes", string_of_int f.bytes_alloc); ("cache", cache); ("kernel", f.kernel);
          ("out", f.out) ]

(* The recording hooks. *)

let alloc ~pooling shape =
  let a = Mempool.alloc ~pooling shape in
  (match recording () with
  | Some r -> push r (Alloc (new_id r a.Ndarray.data, Array.copy shape))
  | None -> ());
  a

let recycle ~pooling (a : Ndarray.t) =
  (match recording () with
  | None -> ()
  | Some r ->
      let b = a.Ndarray.data in
      let i = id_of_buffer r b in
      r.live <- List.filter (fun (b', _) -> b' != b) r.live;
      push r (Recycle i));
  Mempool.recycle ~pooling a

let fill (a : Ndarray.t) d =
  (match recording () with Some r -> push r (Fill (id_of r a, d)) | None -> ());
  Ndarray.fill a d

let blit ~src ~dst =
  (match recording () with Some r -> push r (Blit (id_of r src, id_of r dst)) | None -> ());
  Ndarray.blit ~src ~dst

let copy_complement src dst lb ub =
  (match recording () with
  | Some r -> push r (Complement (id_of r src, id_of r dst, Array.copy lb, Array.copy ub))
  | None -> ());
  Lower.copy_complement src dst lb ub

let count shards fam =
  (match recording () with Some r -> push r (Count fam) | None -> ());
  note shards fam

let save_shell arr shell =
  (match recording () with Some r -> push r (Save_shell (id_of r arr, id_of r shell)) | None -> ());
  save arr shell

let restore_shell (l : Ir.loan) arr =
  (match recording () with
  | Some r -> push r (Restore_shell (id_of r arr, id_of r l.Ir.lshell))
  | None -> ());
  restore arr l.Ir.lshell l.Ir.lsum

let reuse arr =
  (match recording () with Some r -> push r (Reuse (id_of r arr)) | None -> ());
  reuse_in_place arr

(* A force's parts over buffer ids, their templates stripped.  A part
   on the closure path interprets a graph expression, which no tape can
   rebind. *)
let run ctx out parts =
  (match recording () with
  | None -> ()
  | Some r ->
      let stripped =
        List.filter_map
          (function
            | Plan.Ccompiled cp ->
                Some
                  ( Plan.strip_cpart cp,
                    Array.map
                      (fun (cl : Cluster.ccluster) -> id_of_buffer r cl.Cluster.xbuf)
                      cp.Plan.kclusters )
            | Plan.Cclosure (_, _, body) ->
                r.refused <- Some (if Ir.expr_has_opaque body then Opaque else Closure);
                None)
          parts
      in
      push r (Run (id_of r out, Array.of_list stripped)));
  Backend.run_parts ctx parts ~out

let forced sp ~cache f =
  (match recording () with Some r -> push r (Forced f) | None -> ());
  stop_force sp ~cache f

(* ------------------------------------------------------------------ *)
(* Staged calls.

   A call's bound sources — its input, then its parameters — must each
   be a buffer: a leaf array, or a materialised node that is not
   escaped, lent or pinned.  The call's signature is the stepper's id,
   the plan-affecting settings ([env]) and [pooling], and per bound
   source its leaf flag, shape, strides, reference count and the first
   bound source sharing its buffer.  Tapes live in the engine's plan
   cache under that signature ([tape_key]), next to the plans: they
   share its lock, its LRU bound, [Engine.cache_clear] and the serving
   siblings that share the cache.  A call whose signature has a tape
   replays it; any other runs the body on the per-force path,
   recording a new tape unless the recording is refused.  Every call
   that does not replay counts one [stage.fallback] reason. *)

type stepper = { sid : int; body : Ir.source array -> Ir.source -> Ir.source }

let stepper_ids = Atomic.make 0
let stepper body = { sid = Atomic.fetch_and_add stepper_ids 1; body }

let no_buffer = Ndarray.of_buffer [| 0 |] Plan.dummy_buf

(* The buffers of a call's bound sources, when each is one. *)
let buffers (bound : Ir.source array) =
  let buffer = function
    | Ir.Arr a | Ir.Node { Ir.cache = Some a; escaped = false; loan = None; pin = 0; _ } -> a
    | Ir.Node _ -> raise_notrace Exit
  in
  match Array.map buffer bound with bufs -> Some bufs | exception Exit -> None

let refs_of = function Ir.Arr _ -> 0 | Ir.Node n -> n.Ir.refs

(* The first bound source sharing slot [j]'s buffer. *)
let root_of (bufs : Ndarray.t array) j =
  let rec go k = if bufs.(k).Ndarray.data == bufs.(j).Ndarray.data then k else go (k + 1) in
  go 0

(* A tape key starts with 'T'; a plan key with the settings' [env]. *)
let tape_key ~env ~pooling s (bound : Ir.source array) (bufs : Ndarray.t array) =
  let b = Buffer.create 96 in
  let int i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','
  in
  Buffer.add_char b 'T';
  int s.sid;
  Buffer.add_string b env;
  Buffer.add_string b (if pooling then "po;" else "-po;");
  Array.iteri
    (fun j (a : Ndarray.t) ->
      Buffer.add_char b (match bound.(j) with Ir.Arr _ -> 'a' | Ir.Node _ -> 'n');
      int (root_of bufs j);
      int (refs_of bound.(j));
      Array.iter int a.Ndarray.shape;
      Buffer.add_char b '/';
      Array.iter int a.Ndarray.strides;
      Buffer.add_char b ';')
    bufs;
  Buffer.contents b

(* The tape of a finished recording, or the reason it cannot stand for
   the call.  Beyond a refusal, a tape needs a result the body computed,
   in a buffer the tape owns and outside any loan, an input left unlent
   and unpinned, and parameters it neither wrote nor released, holding
   their buffers and reference counts as bound; otherwise the call
   shares state with values outside the body ([Captured]). *)
let tape_of r s (result : Ir.source) =
  let live_id (a : Ndarray.t) = List.assq_opt a.Ndarray.data r.live in
  let ops = Array.of_list (List.rev r.ops) in
  let nbound = Array.length r.bound in
  let rec is_param i j = j < nbound && (r.roots.(j) = i || is_param i (j + 1)) in
  let param_intact j =
    match r.bound.(j) with
    | Ir.Arr _ -> true
    | Ir.Node m -> (
        m.Ir.refs = r.brefs.(j) && m.Ir.loan = None
        && match m.Ir.cache with Some a -> live_id a = Some r.roots.(j) | None -> false)
  in
  let params_intact () =
    let rec go j = j = nbound || (param_intact j && go (j + 1)) in
    go 1
    && not
         (Array.exists (fun op -> match written op with Some i -> is_param i 1 | None -> false) ops)
  in
  match (r.refused, result) with
  | Some reason, _ -> Error reason
  | None, Ir.Node n when List.memq n r.computed && n.Ir.loan = None && params_intact () -> (
      let input_after =
        match r.bound.(0) with
        | Ir.Arr _ -> Some (None, 0)
        | Ir.Node m when m.Ir.loan <> None || m.Ir.pin <> 0 -> None
        | Ir.Node m -> (
            let refs = m.Ir.refs - r.brefs.(0) in
            match m.Ir.cache with
            | None -> Some (None, refs)
            | Some a -> Option.map (fun i -> (Some i, refs)) (live_id a))
      in
      match (Option.bind n.Ir.cache live_id, input_after) with
      | Some tresult, Some (tinput, trefs) ->
          Ok
            { tstepper = s.sid;
              tops = ops;
              tbufs = r.nbufs;
              tresult;
              tinput;
              trefs;
              telided = [||];
            }
      | _ -> Error Captured)
  | None, _ -> Error Captured

let fallback shards reason = note shards (List.assoc reason stage_fallback)

(* Run the body on the per-force path with the calling domain
   recording, force its result, and store the tape under [key]. *)
let record ~cache ~shards ~force s (bound : Ir.source array) (bufs : Ndarray.t array) key =
  let taped = Plan_cache.exists cache (function Taped t -> t.tstepper = s.sid | _ -> false) in
  let roots = Array.mapi (fun j _ -> root_of bufs j) bufs in
  let r =
    { bound;
      brefs = Array.map refs_of bound;
      roots;
      ops = [];
      live =
        List.filter_map
          (fun j -> if roots.(j) = j then Some (bufs.(j).Ndarray.data, j) else None)
          (List.init (Array.length bufs) Fun.id);
      nbufs = Array.length bufs;
      computed = [];
      refused = None;
      forcing = false;
    }
  in
  let cell = Domain.DLS.get recorder_key in
  cell := Some r;
  let result =
    Fun.protect
      ~finally:(fun () -> cell := None)
      (fun () ->
        let result = s.body (Array.sub bound 1 (Array.length bound - 1)) bound.(0) in
        (match result with
        | Ir.Node n ->
            r.forcing <- true;
            force n
        | Ir.Arr _ -> ());
        result)
  in
  (match tape_of r s result with
  | Ok t ->
      let t = prune ~bound:(Array.map Ndarray.shape bufs) t in
      Plan_cache.add cache ~shards key (Taped t);
      fallback shards (if taped then Signature else Unrecorded)
  | Error reason -> fallback shards reason);
  result

let last_forced ops =
  let rec go i = if i < 0 || (match ops.(i) with Forced _ -> true | _ -> false) then i else go (i - 1) in
  go (Array.length ops - 1)

let replay ~shards ~pooling ~ctx (t : tape) (input : Ir.source) (bound : Ndarray.t array) =
  let bufs = Array.make t.tbufs no_buffer in
  Array.blit bound 0 bufs 0 (Array.length bound);
  (* The input gives its buffer up first: should a kernel raise, a stale
     consumer re-forces it rather than read a recycled buffer. *)
  (match input with Ir.Node m when t.tinput <> Some 0 -> Ir.clear_cache m | _ -> ());
  Array.iteri
    (fun k n -> if n > 0 then Mg_obs.Metrics.add (Mg_obs.Scope.shard shards stage_elided.(k)) n)
    t.telided;
  let debug = Mempool.get_debug () in
  let sums = if debug then Array.make (Array.length bufs) 0 else [||] in
  (* Each replayed force's span opens when the previous one closes;
     none opens after the last, so the tape's trailing recycles leave
     no span open. *)
  let sp = ref (Span.start ()) in
  let ops = t.tops in
  let last = if Span.active !sp then last_forced ops else -1 in
  for k = 0 to Array.length ops - 1 do
    match ops.(k) with
    | Alloc (i, shape) -> bufs.(i) <- Mempool.alloc ~pooling shape
    | Recycle i -> Mempool.recycle ~pooling bufs.(i)
    | Fill (i, d) -> Ndarray.fill bufs.(i) d
    | Blit (src, dst) -> Ndarray.blit ~src:bufs.(src) ~dst:bufs.(dst)
    | Complement (src, dst, lb, ub) -> Lower.copy_complement bufs.(src) bufs.(dst) lb ub
    | Save_shell (b, sh) ->
        let sum = save bufs.(b) bufs.(sh) in
        if debug then sums.(sh) <- sum
    | Restore_shell (b, sh) -> restore bufs.(b) bufs.(sh) (if debug then sums.(sh) else 0)
    | Reuse i -> reuse_in_place bufs.(i)
    | Count fam -> note shards fam
    | Run (o, parts) ->
        Backend.run_parts ctx ~out:bufs.(o)
          (Array.fold_right
             (fun (cp, ids) acc ->
               Plan.Ccompiled (Plan.rebind_cpart cp (fun j -> bufs.(ids.(j)).Ndarray.data)) :: acc)
             parts [])
    | Forced f ->
        stop_force !sp ~cache:"replay" f;
        if k < last then sp := Span.start ()
  done;
  (match input with
  | Ir.Node m ->
      Option.iter (fun i -> Ir.set_cache m bufs.(i)) t.tinput;
      for _ = 1 to t.trefs do
        Ir.incr_refs input
      done;
      for _ = 1 to -t.trefs do
        Ir.decr_refs input
      done
  | Ir.Arr _ -> ());
  let out = bufs.(t.tresult) in
  Mempool.keep out;
  Ir.Node (Ir.value out.Ndarray.shape out)

let step ~cache ~shards ~pooling ~env ~ctx ~force s params input =
  let per_force () =
    let result = s.body params input in
    (match result with Ir.Node n -> force n | Ir.Arr _ -> ());
    result
  in
  if !(Domain.DLS.get recorder_key) <> None then begin
    fallback shards Nested;
    per_force ()
  end
  else
    let bound = Array.append [| input |] params in
    match buffers bound with
    | None ->
        fallback shards Signature;
        per_force ()
    | Some bufs -> (
        let key = tape_key ~env ~pooling s bound bufs in
        match Plan_cache.find cache key with
        | Some (Taped t) ->
            note shards stage_replays;
            replay ~shards ~pooling ~ctx t input bufs
        | _ -> record ~cache ~shards ~force s bound bufs key)
