open Mg_ndarray
module Domain_pool = Mg_smp.Domain_pool
module Span = Mg_obs.Span

(* Execution context per force: the worker pool and the minimum
   cardinality below which parts stay sequential. *)
type ctx = { pool : Domain_pool.t; par_threshold : int }

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
   the same step/width as [cp.kgen] with its axis-0 lower bound
   displaced by a whole number of steps (what [Generator.split_axis]
   produces), so every layout shifts by [koff0] whole steps. *)
let run_cpart_piece (out : Ndarray.t) (cp : Plan.cpart) ~(piece : Generator.t) ~whole =
  let kgen = cp.Plan.kgen in
  let koff0 =
    if whole then 0 else (piece.Generator.lb.(0) - kgen.Generator.lb.(0)) / kgen.Generator.step.(0)
  in
  let counts = if whole then cp.Plan.kcounts else Generator.counts piece in
  let clusters =
    if koff0 = 0 then cp.Plan.kclusters
    else
      Array.map (fun cl -> Cluster.shift_base cl (koff0 * cl.Cluster.xsteps.(0))) cp.Plan.kclusters
  in
  let obase = cp.Plan.kobase + (koff0 * cp.Plan.kosteps.(0)) in
  match cp.Plan.kkernel with
  | Some k ->
      let k = if koff0 = 0 then k else Kernel.rebind_k3 clusters ~koff0 k in
      Kernel.run_k3 ~const:cp.Plan.kconst k clusters out.Ndarray.data ~obase
        ~osteps:cp.Plan.kosteps ~counts
  | None ->
      Kernel.run_lin_generic ~const:cp.Plan.kconst clusters out.Ndarray.data ~obase
        ~osteps:cp.Plan.kosteps ~counts

let run_piece (out : Ndarray.t) (p : prepared) ~(piece : Generator.t) ~whole =
  match p with
  | Pc cp -> run_cpart_piece out cp ~piece ~whole
  | Pf f -> run_closure_piece out f piece

(* Run one part: whole on the calling domain, or — when it is large
   enough and the pool has more than one domain — cut into one axis-0
   slab per domain, the slabs run on the pool. *)
let run_compiled ctx (out : Ndarray.t) (c : Plan.compiled) =
  let gen = Plan.compiled_gen c and card = Plan.compiled_card c in
  if card > 0 then begin
    let nworkers = Domain_pool.size ctx.pool in
    let par =
      card >= ctx.par_threshold && nworkers > 1 && Generator.rank gen > 0 && not (Plan.is_group c)
    in
    let p = prepare c in
    if par then begin
      let pieces = Array.of_list (Generator.split_axis gen ~axis:0 ~pieces:nworkers) in
      Domain_pool.parallel_for ctx.pool ~lo:0 ~hi:(Array.length pieces) (fun lo hi ->
          for i = lo to hi - 1 do
            let sp = Span.start () in
            run_piece out p ~piece:pieces.(i) ~whole:false;
            if Span.active sp then
              Span.stop
                ~attrs:[ ("elements", string_of_int (Generator.cardinal pieces.(i))) ]
                ~name:"backend:piece" sp
          done)
    end
    else run_piece out p ~piece:gen ~whole:true
  end

let run_parts ctx parts ~out = List.iter (run_compiled ctx out) parts
