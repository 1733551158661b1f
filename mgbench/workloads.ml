(* The four workloads, measured untraced.  Each returns its end-to-end
   metrics; every solve it runs is checked as an op (Record). *)

open Mg_core
module Engine = Mg_withloop.Engine
module Mempool = Mg_withloop.Mempool
module Native = Mg_withloop.Native
module Serve = Mg_serve.Serve
module R = Record

type ctx = {
  rng : Random.State.t;  (* from --seed: pair order and serve request order *)
  seconds : float;
  smoke : bool;  (* tiny classes and counts, for the test *)
  ops : R.ops;
  scratch : string;  (* per-run directory inside the checkout *)
}

(* The literal defaults (O3, one solver thread, cfun on, native off),
   whatever MG_* variables the environment holds. *)
let config = Engine.default_config

(* setup_s is the median of [n] set-ups (one under --smoke).  The
   count is fixed, not a time budget: every set-up leaves memory
   behind, so a count that varied with speed would move peak_rss_mb. *)
let setups ctx n = if ctx.smoke then 1 else n

let fresh_dir =
  let n = ref 0 in
  fun ctx what ->
    incr n;
    let d = Filename.concat ctx.scratch (Printf.sprintf "%s-%d" what !n) in
    Unix.mkdir d 0o755;
    d

let key impl (cls : Classes.t) = Driver.impl_to_string impl ^ "/" ^ cls.Classes.name

(* One checked solve: [Some result] when it passes. *)
let solve ctx ?engine impl cls =
  let key = key impl cls in
  match Driver.run ?engine ~impl ~cls () with
  | exception e ->
      R.fail ctx.ops key (Printexc.to_string e);
      None
  | r ->
      if R.check ctx.ops ~key ~rnm2:r.Driver.rnm2 ~verified:(Verify.status_ok r.Driver.status) then
        Some r
      else None

(* A SAC solve on a fresh engine: an empty plan cache. *)
let cold_solve ctx cls =
  let e = Engine.create ~config () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> solve ctx ~engine:e Driver.Sac cls)

(* Each op starts from a collected heap: the previous op's garbage
   (F77 grids, dead graphs) is freed, not carried into this op's time
   and into the process's peak RSS at a point that varies with GC
   pacing. *)
let settled f =
  Gc.full_major ();
  f ()

(* Set-up of the pair workloads: a fresh engine, with an empty plan
   cache, to its first verified solve.  The process's buffer pool stays
   warm: refilling it is page faults, whose cost on this host swings
   with the neighbours' load and would drown work moved into set-up. *)
let cold_setup_s ctx ~n cls =
  R.median
    (List.init (setups ctx n) (fun _ ->
         fst (settled (fun () -> R.elapsed (fun () -> cold_solve ctx cls)))))

(* SAC/F77 pairs until the deadline, the order inside each pair drawn
   from the seed.  Returns the passing pairs as (sac, f77) results. *)
let pairs ctx ~sac ~f77 =
  let deadline = R.now () +. ctx.seconds in
  let rec go acc =
    if R.now () >= deadline then List.rev acc
    else
      let s, f =
        if Random.State.bool ctx.rng then
          let s = settled sac in
          (s, settled f77)
        else
          let f = settled f77 in
          (settled sac, f)
      in
      match (s, f) with Some s, Some f -> go ((s, f) :: acc) | _ -> go acc
  in
  go []

(* The metrics of the pair workloads, from the passing pairs' SAC and
   F77 iteration-phase seconds.  Other tenants of the host slow it by
   up to 2x in spells of seconds to minutes, so solve_s is the run's
   fastest solve; the ratio is taken per pair, where a spell slows
   both sides alike. *)
let pair_metrics ctx ~setup ps =
  if ps = [] then failwith "mgbench: no SAC/F77 pair passed";
  let sac = List.map (fun (s, _) -> s.Driver.seconds) ps
  and f77 = List.map (fun (_, f) -> f.Driver.seconds) ps in
  [ ("solve_s", List.fold_left Float.min infinity sac);
    ("sac_f77_ratio", R.median (List.map2 ( /. ) sac f77));
    ("setup_s", setup);
    ("peak_rss_mb", R.peak_rss_mb ctx.ops);
  ]

(* ------------------------------------------------------------------ *)
(* solve-W, solve-W128                                                 *)

let solve_class ctx (cls : Classes.t) =
  let setup = cold_setup_s ctx ~n:5 cls in
  let e = Engine.create ~config () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown e)
    (fun () ->
      (* Warm-up: fills the plan cache and the arenas. *)
      ignore (solve ctx ~engine:e Driver.Sac cls);
      ignore (solve ctx ~engine:e Driver.F77 cls);
      pair_metrics ctx ~setup
        (pairs ctx
           ~sac:(fun () -> solve ctx ~engine:e Driver.Sac cls)
           ~f77:(fun () -> solve ctx ~engine:e Driver.F77 cls)))

(* ------------------------------------------------------------------ *)
(* cold-S                                                              *)

(* A set-up is one ~25 ms solve here, so it takes more of them for a
   steady median. *)
let cold ctx (cls : Classes.t) =
  let setup = cold_setup_s ctx ~n:25 cls in
  pair_metrics ctx ~setup
    (pairs ctx
       ~sac:(fun () -> cold_solve ctx cls)
       ~f77:(fun () -> solve ctx Driver.F77 cls))

(* ------------------------------------------------------------------ *)
(* serve-S                                                             *)

let serve_config dir =
  { Serve.capacity = 64;
    workers = 1;
    solver_threads = 1;
    engine_config = { config with Engine.native_cache = Some dir };
  }

let tiers = [ Serve.Cfun; Serve.Native ]

(* What a served request runs: a SAC solve on a kernel tier, or an F77
   solve — the reference the served SAC solves are divided by, timed
   on the same worker under the same host conditions. *)
type op = Sac of Serve.tier | F77

let op_key (cls : Classes.t) = function
  | Sac tier -> "sac/" ^ cls.Classes.name ^ "/" ^ Serve.tier_to_string tier
  | F77 -> key Driver.F77 cls

let f77_payload cls () =
  let r = Driver.run ~impl:Driver.F77 ~cls () in
  if Verify.status_ok r.Driver.status then r.Driver.rnm2 else failwith "F77 not verified"

(* Request [k]: every tenth an F77 solve, the others SAC with tiers
   alternating; tenants a:3,b:1 drawn from the seed. *)
let request ctx cls k =
  let op = if k mod 10 = 9 then F77 else Sac (List.nth tiers (k mod 2)) in
  let tenant, weight = if Random.State.int ctx.rng 4 < 3 then ("a", 3) else ("b", 1) in
  let payload =
    match op with
    | Sac tier -> Serve.Solve (Serve.spec ~tier ~impl:Driver.Sac ~cls ())
    | F77 -> Serve.Custom (f77_payload cls)
  in
  (op, Serve.request ~tenant ~weight payload)

(* Closed loop: keep [outstanding] requests in flight, submitting the
   next one as the oldest resolves, until [stop k] holds for the
   number [k] of requests submitted.  Returns the (op, outcome) pairs
   in completion order and the loop's wall time. *)
let closed_loop ctx server cls ~outstanding ~stop =
  let q = Queue.create () and out = ref [] and k = ref 0 in
  let submit () =
    let op, req = request ctx cls !k in
    incr k;
    match Serve.submit server req with
    | Ok ticket -> Queue.add (op, ticket) q
    | Error rej ->
        out := (op, Serve.Failed ("rejected: " ^ Mg_serve.Admission.reject_to_string rej)) :: !out
  in
  let t0 = R.now () in
  for _ = 1 to outstanding do
    submit ()
  done;
  while not (Queue.is_empty q) do
    let op, ticket = Queue.pop q in
    out := (op, Serve.await server ticket) :: !out;
    if not (stop !k) then submit ()
  done;
  (List.rev !out, R.now () -. t0)

(* Served SAC responses are checked against a sequential Driver.run
   twin per tier, on a fresh engine sharing the native disk cache;
   served F77 ones against the first of them. *)
let set_twins ctx ~dir cls =
  List.iter
    (fun tier ->
      let e = Engine.create ~config:{ config with Engine.native_cache = Some dir } () in
      Fun.protect
        ~finally:(fun () -> Engine.shutdown e)
        (fun () ->
          let r =
            Driver.run ~engine:e ~cfun:true ~native:(tier = Serve.Native) ~impl:Driver.Sac ~cls ()
          in
          R.set_reference ctx.ops (op_key cls (Sac tier)) r.Driver.rnm2))
    tiers

(* The passing responses, with their ops. *)
let check_served ctx cls served =
  List.filter_map
    (fun (op, outcome) ->
      let key = op_key cls op in
      match outcome with
      | Serve.Done (r : Serve.response) ->
          if R.check ctx.ops ~key ~rnm2:r.Serve.rnm2 ~verified:r.Serve.verified then Some (op, r)
          else None
      | Serve.Failed msg ->
          R.fail ctx.ops key msg;
          None
      | Serve.Cancelled ->
          R.fail ctx.ops key "cancelled";
          None)
    served

let sac_only = List.filter_map (function Sac _, r -> Some r | F77, _ -> None)
let f77_only = List.filter_map (function F77, r -> Some r | Sac _, _ -> None)
let solve_s (r : Serve.response) = Int64.to_float r.Serve.solve_ns /. 1e9

(* Set-up: a server with a fresh native cache directory (and an empty
   in-process kernel memo, so cc really runs) up to the end of its
   first solve of each tier.  Returns the time, the live server, its
   cache directory and the set-up's outcomes. *)
let serve_setup ctx cls =
  Native.reset_for_tests ();
  Mempool.clear ();
  let dir = fresh_dir ctx "native" in
  let t, (server, (first, _)) =
    settled (fun () ->
        R.elapsed (fun () ->
            let server = Serve.create ~config:(serve_config dir) () in
            ( server,
              closed_loop ctx server cls ~outstanding:(List.length tiers) ~stop:(fun _ -> true) )))
  in
  (t, server, dir, first)

(* The load runs in epochs of [epoch] requests, the heap collected in
   between (while the worker idles); each epoch gives one SAC/F77
   ratio.  Twins come first, so ops are checked (and counted towards
   the peak-RSS reading) as the load runs. *)
let epoch ctx = if ctx.smoke then 10 else 40

let serve ctx (cls : Classes.t) =
  (* One server at a time; the last one set up carries the load. *)
  let rec setups_from n acc =
    let ((_, server, _, _) as s) = serve_setup ctx cls in
    if n = 1 then s :: acc
    else begin
      Serve.shutdown server;
      setups_from (n - 1) (s :: acc)
    end
  in
  let all = setups_from (setups ctx 5) [] in
  let _, server, dir, _ = List.hd all in
  let times = List.map (fun (t, _, _, _) -> t) all
  and first = List.concat_map (fun (_, _, _, f) -> f) all in
  let epochs =
    Fun.protect
      ~finally:(fun () -> Serve.shutdown server)
      (fun () ->
        set_twins ctx ~dir cls;
        ignore (check_served ctx cls first);
        let deadline = R.now () +. ctx.seconds in
        let rec epochs acc =
          if R.now () >= deadline then acc
          else
            let served, _ =
              settled (fun () ->
                  closed_loop ctx server cls ~outstanding:2 ~stop:(fun k -> k >= epoch ctx))
            in
            epochs (check_served ctx cls served :: acc)
        in
        epochs [])
  in
  let sac = List.concat_map sac_only epochs in
  if sac = [] then failwith "mgbench: no served request passed";
  let ratios =
    List.filter_map
      (fun d ->
        match (sac_only d, f77_only d) with
        | [], _ | _, [] -> None
        | s, f -> Some (R.median (List.map solve_s s) /. R.median (List.map solve_s f)))
      epochs
  in
  [ ("solve_s", List.fold_left Float.min infinity (List.map solve_s sac));
    ("sac_f77_ratio", R.median ratios);
    ("setup_s", R.median times);
    ("peak_rss_mb", R.peak_rss_mb ctx.ops);
  ]

(* ------------------------------------------------------------------ *)

type kind = Solve | Cold | Serve

let run ctx kind cls =
  match kind with Solve -> solve_class ctx cls | Cold -> cold ctx cls | Serve -> serve ctx cls
