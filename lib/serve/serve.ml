(* The multi-tenant solver service: a bounded Admission queue feeding
   a team of serving-worker domains, each solving under its own
   Engine.t.  The engines share one plan cache (Engine.create
   ~share_cache) and, transitively, the on-disk native kernel cache;
   per-request isolation is the executor's own: each worker has its
   own per-domain arena and runs one request at a time.

   Locking discipline: ONE mutex guards the admission queue, the
   outcome table and the lifecycle flags.  Workers hold it only to
   dispatch/complete (queue surgery, never a solve); clients hold it
   only to submit/cancel/poll.  Two condition variables: [work_cv]
   wakes workers on submit and shutdown, [done_cv] wakes awaiters on
   every resolution.  Solves run outside the lock, so the protocol
   obligations are exactly Admission's linear ones — a dispatched
   request is completed by its worker on every path (the completion
   sits in a Fun.protect-equivalent match on the solve's outcome),
   which is what makes shutdown-drains deadlock-free by
   construction. *)

open Mg_withloop
open Mg_core
module Metrics = Mg_obs.Metrics

let now_ns () = Monotonic_clock.now ()

type tier = Engine.tier = Generic | Cfun | Native

let tier_to_string = Engine.tier_to_string

type spec = {
  impl : Driver.impl;
  cls : Classes.t;
  opt : Engine.opt_level option;
  tier : tier option;
}

let spec ?opt ?tier ~impl ~cls () = { impl; cls; opt; tier }

type payload = Solve of spec | Custom of (unit -> float)
type request = { tenant : string; weight : int; payload : payload }

let request ?(tenant = "default") ?(weight = 1) payload = { tenant; weight; payload }

type response = {
  ticket : int;
  tenant : string;
  worker : int;
  rnm2 : float;
  verified : bool;
  queue_ns : int64;
  solve_ns : int64;
}

type outcome = Done of response | Failed of string | Cancelled

type config = {
  capacity : int;
  workers : int;
  solver_threads : int;
  engine_config : Engine.config;
}

let default_config () =
  { capacity = 64; workers = 2; solver_threads = 1; engine_config = Engine.config_of_env () }

(* What actually sits in the admission queue. *)
type work = { req : request; submitted_ns : int64 }

type lifecycle = Running | Stopping | Stopped

type t = {
  mu : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  adm : work Admission.t;
  outcomes : (int, outcome) Hashtbl.t;
  mutable life : lifecycle;
  engines : Engine.t array;  (* one per worker; shared plan cache *)
  mutable domains : unit Domain.t array;
  (* Unlabelled instruments interned once.  The per-tenant families
     ([serve.accepted], [.rejected], [.completed], [.latency_ns]) are
     written only to their tenant's cell, interned on use; their
     unlabelled reads are the totals over tenants. *)
  c_submitted : Metrics.counter;
  c_failed : Metrics.counter;
  c_cancelled : Metrics.counter;
  g_depth : Metrics.gauge;
  h_queue : Metrics.histogram;
  h_solve : Metrics.histogram;
}

let tenant_counter tenant name = Metrics.counter ~labels:[ ("tenant", tenant) ] name

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let set_depth t = Metrics.set_gauge t.g_depth (float_of_int (Admission.stats t.adm).Admission.queued)

(* ------------------------------------------------------------------ *)
(* Running one request (outside the lock, on a worker domain)          *)

let run_payload t widx (w : work) =
  let eng = t.engines.(widx) in
  let tenant = w.req.tenant in
  match w.req.payload with
  | Custom f -> (
      try
        let v = Engine.with_current eng f in
        Ok (v, true)
      with e -> Error (Printexc.to_string e))
  | Solve s -> (
      let engine =
        match s.tier with Some t -> Engine.derive eng (Engine.with_tier t) | None -> eng
      in
      try
        let r =
          Driver.run ~engine ~tenant ?opt:s.opt ~impl:s.impl ~cls:s.cls ()
        in
        Ok (r.Driver.rnm2, Verify.status_ok r.Driver.status)
      with e -> Error (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

let worker_loop t widx () =
  let rec next () =
    Mutex.lock t.mu;
    let rec wait_for_work () =
      match Admission.dispatch t.adm with
      | Some job ->
          set_depth t;
          Mutex.unlock t.mu;
          Some job
      | None ->
          if t.life <> Running then begin
            Mutex.unlock t.mu;
            None
          end
          else begin
            Condition.wait t.work_cv t.mu;
            wait_for_work ()
          end
    in
    match wait_for_work () with
    | None -> ()
    | Some (id, tenant, w) ->
        let dispatched_ns = now_ns () in
        let queue_ns = Int64.sub dispatched_ns w.submitted_ns in
        let result = run_payload t widx w in
        let done_ns = now_ns () in
        let solve_ns = Int64.sub done_ns dispatched_ns in
        let latency_ns = Int64.sub done_ns w.submitted_ns in
        let outcome =
          match result with
          | Ok (rnm2, verified) ->
              Done { ticket = id; tenant; worker = widx; rnm2; verified; queue_ns; solve_ns }
          | Error msg -> Failed msg
        in
        Metrics.observe t.h_queue (Int64.to_int queue_ns);
        Metrics.observe t.h_solve (Int64.to_int solve_ns);
        Metrics.observe
          (Metrics.histogram ~labels:[ ("tenant", tenant) ] "serve.latency_ns")
          (Int64.to_int latency_ns);
        (match outcome with
        | Done _ -> Metrics.incr (tenant_counter tenant "serve.completed")
        | Failed _ -> Metrics.incr t.c_failed
        | Cancelled -> assert false);
        locked t (fun () ->
            Admission.complete t.adm id;
            Hashtbl.replace t.outcomes id outcome;
            Condition.broadcast t.done_cv);
        next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create ?config () =
  let cfg = match config with Some c -> c | None -> default_config () in
  if cfg.workers < 1 then invalid_arg "Serve.create: workers must be >= 1";
  if cfg.solver_threads < 1 then invalid_arg "Serve.create: solver_threads must be >= 1";
  let ecfg = { cfg.engine_config with Engine.threads = cfg.solver_threads } in
  let first = Engine.create ~config:ecfg () in
  let engines =
    Array.init cfg.workers (fun i ->
        if i = 0 then first else Engine.create ~config:ecfg ~share_cache:first ())
  in
  let t =
    { mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      adm = Admission.create ~capacity:cfg.capacity ();
      outcomes = Hashtbl.create 64;
      life = Running;
      engines;
      domains = [||];
      c_submitted = Metrics.counter "serve.submitted";
      c_failed = Metrics.counter "serve.failed";
      c_cancelled = Metrics.counter "serve.cancelled";
      g_depth = Metrics.gauge "serve.queue_depth";
      h_queue = Metrics.histogram "serve.queue_ns";
      h_solve = Metrics.histogram "serve.solve_ns";
    }
  in
  t.domains <- Array.init cfg.workers (fun i -> Domain.spawn (worker_loop t i));
  t

let submit t (req : request) =
  Metrics.incr t.c_submitted;
  let r =
    locked t (fun () ->
        let r =
          Admission.submit t.adm ~tenant:req.tenant ~weight:req.weight
            { req; submitted_ns = now_ns () }
        in
        (match r with
        | Ok _ ->
            set_depth t;
            Condition.signal t.work_cv
        | Error _ -> ());
        r)
  in
  Metrics.incr
    (tenant_counter req.tenant (match r with Ok _ -> "serve.accepted" | Error _ -> "serve.rejected"));
  r

let check_ticket t id =
  if id < 0 || id >= (Admission.stats t.adm).Admission.accepted then
    invalid_arg (Printf.sprintf "Serve: unknown ticket %d" id)

let peek t id =
  locked t (fun () ->
      check_ticket t id;
      Hashtbl.find_opt t.outcomes id)

let await t id =
  locked t (fun () ->
      check_ticket t id;
      let rec go () =
        match Hashtbl.find_opt t.outcomes id with
        | Some o -> o
        | None ->
            Condition.wait t.done_cv t.mu;
            go ()
      in
      go ())

(* Must be called with the lock held. *)
let cancel_locked t id =
  if Admission.cancel t.adm id then begin
    Hashtbl.replace t.outcomes id Cancelled;
    Metrics.incr t.c_cancelled;
    set_depth t;
    Condition.broadcast t.done_cv;
    true
  end
  else false

let cancel t id =
  locked t (fun () ->
      check_ticket t id;
      cancel_locked t id)

let stats t = locked t (fun () -> Admission.stats t.adm)
let engines t = Array.to_list t.engines

let shutdown ?(drain = true) t =
  let joinable =
    locked t (fun () ->
        match t.life with
        | Stopped | Stopping -> false
        | Running ->
            Admission.drain t.adm;
            if not drain then List.iter (fun id -> ignore (cancel_locked t id)) (Admission.queued_ids t.adm);
            t.life <- Stopping;
            Condition.broadcast t.work_cv;
            true)
  in
  if joinable then begin
    Array.iter Domain.join t.domains;
    Array.iter Engine.shutdown t.engines;
    locked t (fun () ->
        t.life <- Stopped;
        (* Every ticket is resolved at this point: queued work either
           ran (drain) or was cancelled, in-flight work completed
           before its worker exited. *)
        Condition.broadcast t.done_cv)
  end
