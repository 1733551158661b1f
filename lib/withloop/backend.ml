open Mg_ndarray
module Trace = Mg_smp.Trace
module Clock = Mg_smp.Clock
module Domain_pool = Mg_smp.Domain_pool
module Sched_policy = Mg_smp.Sched_policy
module Span = Mg_obs.Span

(* Execution context a backend receives per force: the worker pool,
   the scheduling policy deciding the chunk shape, and the minimum
   cardinality below which parts stay sequential. *)
type ctx = { pool : Domain_pool.t; sched : Sched_policy.t; par_threshold : int }

module type S = sig
  val name : string

  val run_parts : ctx -> Plan.compiled list -> out:Ndarray.t -> unit
  (** Execute the compiled parts of one force into [out].  Parts run
      in order; pieces of one part may run concurrently. *)
end

type t = (module S)

(* ------------------------------------------------------------------ *)
(* Shared piece execution — identical for every backend, so the
   bitwise-identity oracle holds across backends by construction.      *)

(* A part prepared for piecewise execution: closures are built once per
   part, not once per piece. *)
type prepared = Pc of Plan.cpart | Pf of (Shape.t -> float)

let prepare (c : Plan.compiled) =
  match c with
  | Plan.Ccompiled cp -> Pc cp
  | Plan.Cclosure (_, _, body) -> Pf (Lower.closure_of body)

let run_closure_piece (out : Ndarray.t) (f : Shape.t -> float) (g : Generator.t) =
  Mg_obs.Metrics.incr Kernel.c_cfun;
  let shape = Ndarray.shape out in
  Generator.iter g (fun iv -> Ndarray.set_flat out (Shape.ravel ~shape iv) (f iv))

(* Execute a compiled part over one coordinate band.  [piece] must have
   the same step/width as [cp.kgen] with its lower bound displaced by a
   whole number of steps (what [Generator.split_axis] produces) — along
   axis 0 for slab pieces, along axes 0 and 1 for cache tiles — so
   every layout shifts by [koff0]/[koff1] whole steps. *)
let run_cpart_piece (out : Ndarray.t) (cp : Plan.cpart) ~(piece : Generator.t) ~whole =
  let kgen = cp.Plan.kgen in
  let rank = Generator.rank kgen in
  let koff0 =
    if whole || rank = 0 then 0
    else (piece.Generator.lb.(0) - kgen.Generator.lb.(0)) / kgen.Generator.step.(0)
  in
  let koff1 =
    if whole || rank < 2 then 0
    else (piece.Generator.lb.(1) - kgen.Generator.lb.(1)) / kgen.Generator.step.(1)
  in
  let counts = if whole then cp.Plan.kcounts else Generator.counts piece in
  let clusters =
    if koff0 = 0 && koff1 = 0 then cp.Plan.kclusters
    else
      Array.map
        (fun cl ->
          Cluster.shift_base cl
            ((koff0 * cl.Cluster.xsteps.(0))
            + (if koff1 = 0 then 0 else koff1 * cl.Cluster.xsteps.(1))))
        cp.Plan.kclusters
  in
  let obase =
    cp.Plan.kobase
    + (koff0 * cp.Plan.kosteps.(0))
    + (if koff1 = 0 then 0 else koff1 * cp.Plan.kosteps.(1))
  in
  match cp.Plan.kkernel with
  | Some k ->
      let k =
        if koff0 = 0 && koff1 = 0 then k else Kernel.rebind_k3 clusters ~koff0 ~koff1 k
      in
      Kernel.run_k3 ~const:cp.Plan.kconst k clusters out.Ndarray.data ~obase
        ~osteps:cp.Plan.kosteps ~counts
  | None ->
      Kernel.run_lin_generic ~const:cp.Plan.kconst clusters out.Ndarray.data ~obase
        ~osteps:cp.Plan.kosteps ~counts

let run_piece (out : Ndarray.t) (p : prepared) ~(piece : Generator.t) ~whole =
  match p with
  | Pc cp -> run_cpart_piece out cp ~piece ~whole
  | Pf f -> run_closure_piece out f piece

(* Cut a parallel part into pieces.  The 1-D policies produce
   worker-shaped axis-0 slabs; [Tiled] produces cache-shaped
   (plane-block × row-block) tiles — the piece count follows the
   iteration space, and [Sched_policy.ranges] hands tiles out one per
   claim. *)
let split_pieces sched ~nworkers (gen : Generator.t) =
  let blocks j =
    let s = gen.Generator.step.(j) in
    let extent = gen.Generator.ub.(j) - gen.Generator.lb.(j) in
    if extent <= 0 then 0 else (extent + s - 1) / s
  in
  match sched with
  | Sched_policy.Tiled { planes; rows } when Generator.rank gen >= 2 ->
      let p0 = max 1 ((blocks 0 + planes - 1) / planes) in
      let p1 = max 1 ((blocks 1 + rows - 1) / rows) in
      let slabs = Generator.split_axis gen ~axis:0 ~pieces:p0 in
      Array.of_list
        (List.concat_map (fun s -> Generator.split_axis s ~axis:1 ~pieces:p1) slabs)
  | _ ->
      let npieces = nworkers * Sched_policy.chunk_factor sched in
      Array.of_list (Generator.split_axis gen ~axis:0 ~pieces:npieces)

(* Split one part for the context's pool and policy; [run_split] owns
   the actual piece scheduling (pool dispatch or simulation). *)
let run_compiled ctx ~run_split (out : Ndarray.t) (c : Plan.compiled) =
  let gen = Plan.compiled_gen c and card = Plan.compiled_card c in
  if card > 0 then begin
    let nworkers = Domain_pool.size ctx.pool in
    let par =
      card >= ctx.par_threshold && nworkers > 1 && Generator.rank gen > 0 && not (Plan.is_group c)
    in
    let p = prepare c in
    if par then begin
      let pieces = split_pieces ctx.sched ~nworkers gen in
      run_split ctx pieces (fun i -> run_piece out p ~piece:pieces.(i) ~whole:false)
    end
    else run_piece out p ~piece:gen ~whole:true
  end

(* ------------------------------------------------------------------ *)
(* The real backend: pieces dispatched onto the domain pool.  The
   policy shapes the chunks ([Static_block]: one per participant;
   [Dynamic_chunked m]: m finer chunks per worker, claimed
   dynamically), and is passed through so the pool's claim granularity
   matches the split. *)

module Pool : S = struct
  let name = "pool"

  let run_parts ctx parts ~out =
    List.iter
      (run_compiled ctx out ~run_split:(fun ctx pieces body ->
           Domain_pool.parallel_for ~policy:ctx.sched ctx.pool ~lo:0
             ~hi:(Array.length pieces) (fun lo hi ->
               for i = lo to hi - 1 do
                 let sp = Span.start () in
                 body i;
                 if Span.active sp then
                   Span.stop
                     ~attrs:
                       [ ("elements", string_of_int (Generator.cardinal pieces.(i))) ]
                     ~name:"backend:piece" sp
               done)))
      parts
end

(* ------------------------------------------------------------------ *)
(* The tracing backend: the same split executed sequentially on the
   calling domain, emitting one trace event per piece.  Feeding these
   per-piece events to the SMP cost model lets the Fig. 12/13 harness
   study scheduling policies without real parallel hardware — and
   because the split and the piece runner are shared with [Pool], the
   outputs are bitwise identical. *)

module Smp_sim : S = struct
  let name = "smp_sim"

  let run_parts ctx parts ~out =
    List.iter
      (run_compiled ctx out ~run_split:(fun _ctx pieces body ->
           for i = 0 to Array.length pieces - 1 do
             let sp = Span.start () in
             (if Trace.enabled () then begin
                let t0 = Clock.now () in
                body i;
                let piece = pieces.(i) in
                Trace.emit
                  { Trace.tag = "backend:piece";
                    elements = Generator.cardinal piece;
                    seq_seconds = Clock.now () -. t0;
                    bytes_alloc = 0;
                    parallel = false;
                    level_extent =
                      (let c = Generator.counts piece in
                       if Array.length c = 0 then 0 else c.(0));
                  }
              end
              else body i);
             if Span.active sp then
               Span.stop
                 ~attrs:[ ("elements", string_of_int (Generator.cardinal pieces.(i))) ]
                 ~name:"backend:piece" sp
           done))
      parts
end

let default : t = (module Pool)

let by_name = function
  | "pool" | "domains" -> Some (module Pool : S)
  | "smp_sim" | "sim" -> Some (module Smp_sim : S)
  | _ -> None

let name (b : t) =
  let module B = (val b) in
  B.name
