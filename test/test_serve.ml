(* The serving layer: (1) a qcheck shadow model drives the pure
   Admission core through random submit/dispatch/cancel/complete
   interleavings and checks the linear protocol — no lost requests,
   no double dispatch, bounded queue, exact accounting; (2) the
   deficit-weighted round-robin dispatch order is deterministic;
   (3) a concurrent soak: submitting domains race mixed
   tier × schedule requests through the server and every response is
   bitwise-identical to a sequential Driver.run twin; (4) lifecycle —
   shutdown drains in-flight work without deadlock or dropped
   completions, and a poisoned request leaves the worker, its engine
   and the shared plan cache usable. *)

open Mg_withloop
open Mg_core
module Serve = Mg_serve.Serve
module Admission = Mg_serve.Admission

(* ------------------------------------------------------------------ *)
(* 1. Shadow model (qcheck)                                            *)

module Model = struct
  type state = Queued | Dispatched | Completed | Cancelled

  type t = {
    cap : int;
    entries : (int, string * state ref) Hashtbl.t;
    mutable order : int list;  (* submission order, newest first *)
    mutable draining : bool;
    mutable submitted : int;
    mutable accepted : int;
    mutable rejected : int;
    mutable cancelled : int;
    mutable dispatched : int;
    mutable completed : int;
  }

  let create cap =
    { cap;
      entries = Hashtbl.create 32;
      order = [];
      draining = false;
      submitted = 0;
      accepted = 0;
      rejected = 0;
      cancelled = 0;
      dispatched = 0;
      completed = 0;
    }

  let queued m = m.accepted - m.cancelled - m.dispatched
  let in_flight m = m.dispatched - m.completed

  let reject m =
    m.rejected <- m.rejected + 1;
    `Rejected

  let submit m tenant =
    m.submitted <- m.submitted + 1;
    if m.draining then reject m
    else if queued m >= m.cap then reject m
    else begin
      let id = m.accepted in
      (* ids are consecutive over accepted requests *)
      m.accepted <- m.accepted + 1;
      Hashtbl.add m.entries id (tenant, ref Queued);
      m.order <- id :: m.order;
      `Accepted id
    end

  let state m id = !(snd (Hashtbl.find m.entries id))

  let cancel m id =
    match Hashtbl.find_opt m.entries id with
    | Some (_, s) when !s = Queued ->
        s := Cancelled;
        m.cancelled <- m.cancelled + 1;
        true
    | _ -> false

  let dispatch m id =
    let _, s = Hashtbl.find m.entries id in
    assert (!s = Queued);
    s := Dispatched;
    m.dispatched <- m.dispatched + 1

  let complete m id =
    let _, s = Hashtbl.find m.entries id in
    assert (!s = Dispatched);
    s := Completed;
    m.completed <- m.completed + 1

  (* The oldest still-queued id of [tenant]: what FIFO demands the
     next dispatch of that tenant returns. *)
  let fifo_head m tenant =
    List.fold_left
      (fun acc id ->
        match Hashtbl.find_opt m.entries id with
        | Some (t, s) when t = tenant && !s = Queued -> Some id
        | _ -> acc)
      None m.order

  let ids_in m st =
    Hashtbl.fold (fun id (_, s) acc -> if !s = st then id :: acc else acc) m.entries []
end

(* One random operation; the interpretation below picks targets from
   the model's live sets so every branch gets exercised. *)
type op = Submit of int * int | Dispatch | Cancel of int | Complete of int | Drain

let op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun t w -> Submit (t, w)) (int_range 0 3) (int_range 1 3));
        (4, return Dispatch);
        (2, map (fun k -> Cancel k) (int_range 0 40));
        (3, map (fun k -> Complete k) (int_range 0 40));
        (1, return Drain);
      ])

let op_print = function
  | Submit (t, w) -> Printf.sprintf "submit t%d w%d" t w
  | Dispatch -> "dispatch"
  | Cancel k -> Printf.sprintf "cancel #%d" k
  | Complete k -> Printf.sprintf "complete #%d" k
  | Drain -> "drain"

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

let nth_mod l k = match l with [] -> None | _ -> Some (List.nth l (k mod List.length l))

let stats_agree (a : Admission.stats) m =
  a.Admission.submitted = m.Model.submitted
  && a.Admission.accepted = m.Model.accepted
  && a.Admission.rejected = m.Model.rejected
  && a.Admission.cancelled = m.Model.cancelled
  && a.Admission.dispatched = m.Model.dispatched
  && a.Admission.completed = m.Model.completed
  && a.Admission.queued = Model.queued m
  && a.Admission.in_flight = Model.in_flight m
  (* the linear protocol's conservation laws *)
  && a.Admission.submitted = a.Admission.accepted + a.Admission.rejected
  && a.Admission.accepted
     = a.Admission.queued + a.Admission.cancelled + a.Admission.dispatched
  && a.Admission.dispatched = a.Admission.in_flight + a.Admission.completed
  && a.Admission.queued >= 0
  && a.Admission.queued <= m.Model.cap

let qcheck_shadow_model =
  QCheck.Test.make ~name:"admission matches shadow model" ~count:300
    QCheck.(pair (int_range 1 8) ops_arb)
    (fun (cap, ops) ->
      let cap = max 1 cap in  (* the shrinker may leave the generator's range *)
      let t = Admission.create ~capacity:cap () in
      let m = Model.create cap in
      let tenant k = Printf.sprintf "t%d" k in
      let step op =
        (match op with
        | Submit (tk, w) -> (
            let name = tenant tk in
            match (Admission.submit t ~tenant:name ~weight:w (), Model.submit m name) with
            | Ok id, `Accepted mid -> if id <> mid then failwith "ticket id diverged"
            | Error _, `Rejected -> ()
            | Ok _, `Rejected -> failwith "impl accepted, model rejected"
            | Error _, `Accepted _ -> failwith "impl rejected, model accepted")
        | Dispatch -> (
            match Admission.dispatch t with
            | None ->
                if Model.queued m <> 0 then failwith "dispatch returned None with work queued"
            | Some (id, tn, ()) ->
                if Model.queued m = 0 then failwith "dispatch invented work";
                if Model.state m id <> Model.Queued then failwith "double dispatch / ghost";
                (* per-tenant FIFO *)
                (match Model.fifo_head m tn with
                | Some h when h = id -> ()
                | _ -> failwith "dispatch broke tenant FIFO order");
                Model.dispatch m id)
        | Cancel k -> (
            (* aim at a live queued id when one exists, else a random
               resolved one (must report false) *)
            let target =
              match nth_mod (List.sort compare (Model.ids_in m Model.Queued)) k with
              | Some id -> Some id
              | None -> nth_mod (List.sort compare (Model.ids_in m Model.Completed)) k
            in
            match target with
            | None -> ()
            | Some id ->
                let got = Admission.cancel t id in
                let want = Model.cancel m id in
                if got <> want then failwith "cancel verdict diverged")
        | Complete k -> (
            match nth_mod (List.sort compare (Model.ids_in m Model.Dispatched)) k with
            | Some id ->
                Admission.complete t id;
                Model.complete m id
            | None -> (
                (* no in-flight work: completing anything must raise *)
                match nth_mod (List.sort compare (Model.ids_in m Model.Completed)) k with
                | None -> ()
                | Some id -> (
                    match Admission.complete t id with
                    | () -> failwith "complete of a resolved id did not raise"
                    | exception Invalid_argument _ -> ())))
        | Drain ->
            Admission.drain t;
            m.Model.draining <- true);
        if not (stats_agree (Admission.stats t) m) then failwith "stats diverged"
      in
      List.iter step ops;
      (* Drain to the end: in-flight work completes, everything queued
         can still dispatch and complete; nothing is lost. *)
      List.iter
        (fun id ->
          Admission.complete t id;
          Model.complete m id)
        (Model.ids_in m Model.Dispatched);
      let rec flush () =
        match Admission.dispatch t with
        | None -> ()
        | Some (id, _, ()) ->
            Model.dispatch m id;
            Admission.complete t id;
            Model.complete m id;
            flush ()
      in
      flush ();
      let a = Admission.stats t in
      stats_agree a m && a.Admission.queued = 0 && a.Admission.in_flight = 0
      && a.Admission.accepted = a.Admission.completed + a.Admission.cancelled)

(* ------------------------------------------------------------------ *)
(* 2. Weighted round-robin dispatch order is deterministic             *)

let test_wrr_order () =
  let t = Admission.create ~capacity:16 () in
  for _ = 1 to 6 do
    ignore (Admission.submit t ~tenant:"a" ~weight:2 ())
  done;
  for _ = 1 to 3 do
    ignore (Admission.submit t ~tenant:"b" ~weight:1 ())
  done;
  let order = ref [] in
  let rec go () =
    match Admission.dispatch t with
    | Some (id, tn, ()) ->
        order := tn :: !order;
        Admission.complete t id;
        go ()
    | None -> ()
  in
  go ();
  (* First rotation runs on the creation credit (1 each); every later
     rotation refills to the submitted weights 2:1. *)
  Alcotest.(check (list string))
    "a:2,b:1 saturation order"
    [ "a"; "b"; "a"; "a"; "b"; "a"; "a"; "b"; "a" ]
    (List.rev !order);
  let s = Admission.stats t in
  Alcotest.(check int) "all completed" 9 s.Admission.completed

let test_wrr_idle_tenant_passes () =
  let t = Admission.create ~capacity:8 () in
  (* "a" exists in the rotation but has no work: must not stall it. *)
  ignore (Admission.submit t ~tenant:"a" ~weight:3 ());
  (match Admission.dispatch t with
  | Some (id, "a", ()) -> Admission.complete t id
  | _ -> Alcotest.fail "expected a's only request");
  ignore (Admission.submit t ~tenant:"b" ~weight:1 ());
  ignore (Admission.submit t ~tenant:"c" ~weight:1 ());
  let tenants =
    List.init 2 (fun _ ->
        match Admission.dispatch t with
        | Some (id, tn, ()) ->
            Admission.complete t id;
            tn
        | None -> "-")
  in
  Alcotest.(check (list string)) "idle tenant passes its turn" [ "b"; "c" ] tenants

(* ------------------------------------------------------------------ *)
(* 3. Concurrent soak: served rnm2 ≡ sequential twin, bitwise          *)

let bits = Int64.bits_of_float

let soak_specs =
  (* tier × schedule mix over the fast classes plus class S — every
     combination the bench's --kernels/--scheds axes expose. *)
  let open Mg_smp.Sched_policy in
  [ Serve.spec ~tier:Serve.Generic ~sched:Static_block ~impl:Driver.Sac ~cls:Classes.tiny ();
    Serve.spec ~tier:Serve.Cfun ~sched:(Dynamic_chunked 2) ~impl:Driver.Sac ~cls:Classes.tiny ();
    Serve.spec ~tier:Serve.Native
      ~sched:(Tiled { planes = 2; rows = 8 })
      ~impl:Driver.Sac ~cls:Classes.mini ();
    Serve.spec ~tier:Serve.Cfun ~sched:Static_block ~impl:Driver.Sac ~cls:Classes.class_s ();
  ]

let test_soak_bitwise () =
  let cfg = { (Serve.default_config ()) with Serve.workers = 2; capacity = 128 } in
  let server = Serve.create ~config:cfg () in
  let n_domains = 4 and per_domain = 6 in
  let submitter d () =
    List.init per_domain (fun k ->
        let spec = List.nth soak_specs ((d + k) mod List.length soak_specs) in
        let tenant = Printf.sprintf "tenant%d" (d mod 2) in
        match Serve.submit server (Serve.request ~tenant (Serve.Solve spec)) with
        | Error r -> Error (Admission.reject_to_string r)
        | Ok ticket -> (
            match Serve.await server ticket with
            | Serve.Done resp -> Ok (spec, resp)
            | Serve.Failed m -> Error m
            | Serve.Cancelled -> Error "cancelled"))
  in
  let doms = Array.init n_domains (fun d -> Domain.spawn (submitter d)) in
  let results = Array.to_list (Array.map Domain.join doms) |> List.concat in
  Serve.shutdown server;
  let ok, err = List.partition_map (function Ok x -> Left x | Error e -> Right e) results in
  Alcotest.(check (list string)) "no failed/rejected requests" [] err;
  Alcotest.(check int) "all requests served" (n_domains * per_domain) (List.length ok);
  List.iter
    (fun (_, (r : Serve.response)) ->
      Alcotest.(check bool) "response verified" true r.Serve.verified)
    ok;
  (* One sequential twin per distinct spec, on a fresh engine with the
     workers' configuration. *)
  List.iteri
    (fun i spec ->
      let served =
        List.filter_map (fun (s, r) -> if s == spec then Some r else None) ok
      in
      Alcotest.(check bool) (Printf.sprintf "spec %d exercised" i) true (served <> []);
      let config = { cfg.Serve.engine_config with Engine.threads = cfg.Serve.solver_threads } in
      let config = Option.fold ~none:config ~some:(fun t -> Engine.with_tier t config) spec.Serve.tier in
      let e = Engine.create ~config () in
      let twin =
        Fun.protect
          ~finally:(fun () -> Engine.shutdown e)
          (fun () ->
            Driver.run ~engine:e ?sched:spec.Serve.sched ~impl:spec.Serve.impl
              ~cls:spec.Serve.cls ())
      in
      List.iter
        (fun (r : Serve.response) ->
          Alcotest.(check int64)
            (Printf.sprintf "spec %d rnm2 bitwise == sequential twin" i)
            (bits twin.Driver.rnm2) (bits r.Serve.rnm2))
        served)
    soak_specs;
  let s = Serve.stats server in
  Alcotest.(check int) "accounting: accepted" (n_domains * per_domain) s.Admission.accepted;
  Alcotest.(check int) "accounting: completed" (n_domains * per_domain) s.Admission.completed;
  Alcotest.(check int) "accounting: nothing left" 0 (s.Admission.queued + s.Admission.in_flight)

(* ------------------------------------------------------------------ *)
(* 4. Lifecycle                                                        *)

let gate_payload gate = Serve.Custom (fun () -> Semaphore.Counting.acquire gate; 42.0)

let tiny_solve = Serve.Solve (Serve.spec ~tier:Serve.Cfun ~impl:Driver.Sac ~cls:Classes.tiny ())

(* Workers pick jobs up as soon as they are queued; wait until both
   gate customs are actually in flight before queueing behind them. *)
let wait_in_flight server n =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (Serve.stats server).Admission.in_flight < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "workers picked up the gates" n (Serve.stats server).Admission.in_flight

let test_shutdown_drains () =
  let cfg = { (Serve.default_config ()) with Serve.workers = 2; capacity = 16 } in
  let server = Serve.create ~config:cfg () in
  let gate = Semaphore.Counting.make 0 in
  let blocked =
    List.init 2 (fun _ -> Result.get_ok (Serve.submit server (Serve.request (gate_payload gate))))
  in
  wait_in_flight server 2;
  let queued =
    List.init 4 (fun _ -> Result.get_ok (Serve.submit server (Serve.request tiny_solve)))
  in
  (* Open the gates from a helper domain while shutdown is already
     joining the workers — the drain must not deadlock on in-flight
     work and must run everything still queued. *)
  let releaser =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Semaphore.Counting.release gate;
        Semaphore.Counting.release gate)
  in
  Serve.shutdown ~drain:true server;
  Domain.join releaser;
  (match Serve.submit server (Serve.request tiny_solve) with
  | Error Admission.Draining -> ()
  | _ -> Alcotest.fail "submit after shutdown must refuse with Draining");
  List.iter
    (fun tk ->
      match Serve.await server tk with
      | Serve.Done r -> Alcotest.(check (float 0.0)) "custom result" 42.0 r.Serve.rnm2
      | _ -> Alcotest.fail "blocked request dropped")
    blocked;
  List.iter
    (fun tk ->
      match Serve.await server tk with
      | Serve.Done r -> Alcotest.(check bool) "drained solve verified" true r.Serve.verified
      | _ -> Alcotest.fail "queued request dropped by drain")
    queued;
  let s = Serve.stats server in
  Alcotest.(check int) "all six completed" 6 s.Admission.completed;
  Alcotest.(check int) "none cancelled" 0 s.Admission.cancelled

let test_shutdown_no_drain_cancels () =
  let cfg = { (Serve.default_config ()) with Serve.workers = 1; capacity = 16 } in
  let server = Serve.create ~config:cfg () in
  let gate = Semaphore.Counting.make 0 in
  let blocked = Result.get_ok (Serve.submit server (Serve.request (gate_payload gate))) in
  wait_in_flight server 1;
  let queued =
    List.init 3 (fun _ -> Result.get_ok (Serve.submit server (Serve.request tiny_solve)))
  in
  let releaser =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Semaphore.Counting.release gate)
  in
  Serve.shutdown ~drain:false server;
  Domain.join releaser;
  (match Serve.await server blocked with
  | Serve.Done _ -> ()
  | _ -> Alcotest.fail "in-flight request must still complete");
  List.iter
    (fun tk ->
      match Serve.await server tk with
      | Serve.Cancelled -> ()
      | _ -> Alcotest.fail "queued request must be cancelled by drain:false")
    queued;
  let s = Serve.stats server in
  Alcotest.(check int) "one completed" 1 s.Admission.completed;
  Alcotest.(check int) "three cancelled" 3 s.Admission.cancelled

let test_poisoned_request () =
  let cfg = { (Serve.default_config ()) with Serve.workers = 1; capacity = 8 } in
  let server = Serve.create ~config:cfg () in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      let bad =
        Result.get_ok
          (Serve.submit server (Serve.request (Serve.Custom (fun () -> failwith "poison"))))
      in
      (match Serve.await server bad with
      | Serve.Failed msg ->
          let contains s sub =
            let n = String.length sub in
            let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "failure carries the exception" true (contains msg "poison")
      | _ -> Alcotest.fail "poisoned request must resolve Failed");
      (* The worker, its engine, the arena and the shared plan cache
         all survive: the very next solves succeed and the second one
         replays the first one's plans from the cache. *)
      let solve () =
        match Serve.await server (Result.get_ok (Serve.submit server (Serve.request tiny_solve))) with
        | Serve.Done r -> r
        | _ -> Alcotest.fail "solve after poison failed"
      in
      let r1 = solve () in
      let h0 = (Engine.cache_stats (List.hd (Serve.engines server))).Plan_cache.hits in
      let r2 = solve () in
      let h1 = (Engine.cache_stats (List.hd (Serve.engines server))).Plan_cache.hits in
      Alcotest.(check int64) "post-poison solves agree bitwise" (bits r1.Serve.rnm2)
        (bits r2.Serve.rnm2);
      Alcotest.(check bool) "plan cache still serving hits" true (h1 > h0);
      let s = Serve.stats server in
      Alcotest.(check int) "exactly three completions" 3 s.Admission.completed)

let test_rejection_and_cancel () =
  let cfg = { (Serve.default_config ()) with Serve.workers = 1; capacity = 1 } in
  let server = Serve.create ~config:cfg () in
  let gate = Semaphore.Counting.make 0 in
  let blocked = Result.get_ok (Serve.submit server (Serve.request (gate_payload gate))) in
  wait_in_flight server 1;
  (* capacity 1: one queued request fits, the next is refused. *)
  let queued = Result.get_ok (Serve.submit server (Serve.request tiny_solve)) in
  (match Serve.submit server (Serve.request tiny_solve) with
  | Error Admission.Queue_full -> ()
  | _ -> Alcotest.fail "over-capacity submit must refuse with Queue_full");
  Alcotest.(check bool) "cancel of queued request" true (Serve.cancel server queued);
  Alcotest.(check bool) "second cancel is a no-op" false (Serve.cancel server queued);
  (match Serve.await server queued with
  | Serve.Cancelled -> ()
  | _ -> Alcotest.fail "cancelled ticket must resolve Cancelled");
  Semaphore.Counting.release gate;
  Serve.shutdown server;
  (match Serve.await server blocked with
  | Serve.Done _ -> ()
  | _ -> Alcotest.fail "gated request must complete");
  Alcotest.check_raises "await of a never-issued ticket raises"
    (Invalid_argument "Serve: unknown ticket 99") (fun () -> ignore (Serve.await server 99));
  let s = Serve.stats server in
  Alcotest.(check int) "submitted" 3 s.Admission.submitted;
  Alcotest.(check int) "accepted" 2 s.Admission.accepted;
  Alcotest.(check int) "rejected" 1 s.Admission.rejected;
  Alcotest.(check int) "cancelled" 1 s.Admission.cancelled;
  Alcotest.(check int) "completed" 1 s.Admission.completed

let suite =
  ( "serve",
    [ QCheck_alcotest.to_alcotest qcheck_shadow_model;
      Alcotest.test_case "weighted round-robin order deterministic" `Quick test_wrr_order;
      Alcotest.test_case "idle tenant passes its turn" `Quick test_wrr_idle_tenant_passes;
      Alcotest.test_case "concurrent soak bitwise == sequential twins" `Quick test_soak_bitwise;
      Alcotest.test_case "shutdown drains in-flight and queued work" `Quick test_shutdown_drains;
      Alcotest.test_case "shutdown drain:false cancels queued work" `Quick
        test_shutdown_no_drain_cancels;
      Alcotest.test_case "poisoned request leaves server usable" `Quick test_poisoned_request;
      Alcotest.test_case "admission refuses and cancel resolves" `Quick
        test_rejection_and_cancel;
    ] )
