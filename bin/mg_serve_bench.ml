(* mg_serve_bench: the "millions of users" load generator for the
   multi-tenant solver service (ROADMAP item 1).

     mg_serve_bench --duration 60 --workers 2 --tenants a:3,b:1 \
                    --class S --kernels cfun,native --out results/serve_bench.json

   Arrival models:
     closed-loop (default): --clients N request loops, each submitting
       the moment its previous solve resolves — offered load tracks
       service capacity, the classic saturation benchmark;
     open-loop: --rate R submissions per second from a Poisson-less
       fixed-interval arrival process, rejections counted and NOT
       retried — this is the model that exercises admission control.

   Every request is checked: NAS-verified, and (per distinct spec) a
   sequential twin is solved after the run on an identically
   configured fresh engine — each served rnm2 must be bitwise equal
   to its twin.  Exact accounting (submitted = accepted + rejected,
   accepted = completed + failed + cancelled) is asserted.  Exit
   status 0 only if all gates pass; results land in --out as JSON and
   the full metrics registry in --metrics-out (OpenMetrics). *)

open Mg_core
module Serve = Mg_serve.Serve
module Metrics = Mg_obs.Metrics
module Json = Mg_bench_util.Bench_util.Json

let ms_of_ns ns = ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Request mix                                                         *)

type mix = {
  tenants : (string * int) list;  (* name, weight *)
  tiers : Serve.tier list;
  impl : Driver.impl;
  cls : Classes.t;
}

(* The k-th request of a client cycles deterministically through the
   tier mix, so the bitwise spot-check covers every distinct spec that
   was actually served. *)
let spec_of mix k =
  let tier = List.nth mix.tiers (k mod List.length mix.tiers) in
  Serve.spec ~tier ~impl:mix.impl ~cls:mix.cls ()

let spec_key (s : Serve.spec) =
  Printf.sprintf "%s/%s/%s" (Driver.impl_to_string s.Serve.impl) s.Serve.cls.Classes.name
    (match s.Serve.tier with Some t -> Serve.tier_to_string t | None -> "default")

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)

type collected = { mutable done_ : (Serve.spec * Serve.response) list; mutable failed : string list }

let collect col (spec : Serve.spec) = function
  | Serve.Done r -> col.done_ <- (spec, r) :: col.done_
  | Serve.Failed msg -> col.failed <- msg :: col.failed
  | Serve.Cancelled -> ()

(* Closed loop: [clients] domains, each submit→await in a tight loop
   until the deadline.  A rejection (possible only if capacity <
   clients) backs off briefly and retries. *)
let run_closed server mix ~clients ~deadline =
  let client c () =
    let col = { done_ = []; failed = [] } in
    let tenant, weight =
      List.nth mix.tenants (c mod List.length mix.tenants)
    in
    let k = ref c in
    while Unix.gettimeofday () < deadline do
      let spec = spec_of mix !k in
      incr k;
      match Serve.submit server (Serve.request ~tenant ~weight (Serve.Solve spec)) with
      | Error _ -> Unix.sleepf 0.002
      | Ok ticket -> collect col spec (Serve.await server ticket)
    done;
    col
  in
  let ds = Array.init clients (fun c -> Domain.spawn (client c)) in
  Array.to_list (Array.map Domain.join ds)

(* Open loop: fixed-interval arrivals at [rate]/s from one submitter;
   a collector domain resolves tickets in admission order.  Rejected
   arrivals are dropped (and counted by the server) — that is the
   point of the model. *)
let run_open server mix ~rate ~deadline =
  let tickets = Queue.create () in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let submitting = ref true in
  let collector () =
    let col = { done_ = []; failed = [] } in
    let rec go () =
      Mutex.lock mu;
      let item =
        let rec wait () =
          match Queue.take_opt tickets with
          | Some x -> Some x
          | None ->
              if !submitting then begin
                Condition.wait cv mu;
                wait ()
              end
              else None
        in
        wait ()
      in
      Mutex.unlock mu;
      match item with
      | None -> col
      | Some (spec, ticket) ->
          collect col spec (Serve.await server ticket);
          go ()
    in
    go ()
  in
  let d = Domain.spawn collector in
  let interval = 1.0 /. rate in
  let k = ref 0 in
  let tenant_of k = List.nth mix.tenants (k mod List.length mix.tenants) in
  while Unix.gettimeofday () < deadline do
    let spec = spec_of mix !k in
    let tenant, weight = tenant_of !k in
    incr k;
    (match Serve.submit server (Serve.request ~tenant ~weight (Serve.Solve spec)) with
    | Ok ticket ->
        Mutex.lock mu;
        Queue.add (spec, ticket) tickets;
        Condition.signal cv;
        Mutex.unlock mu
    | Error _ -> ());
    Unix.sleepf interval
  done;
  Mutex.lock mu;
  submitting := false;
  Condition.broadcast cv;
  Mutex.unlock mu;
  [ Domain.join d ]

(* ------------------------------------------------------------------ *)
(* The bitwise gate: one sequential twin per distinct served spec      *)

let twin_check ~(cfg : Serve.config) responses =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (spec, (r : Serve.response)) ->
      let key = spec_key spec in
      let l = try Hashtbl.find tbl key with Not_found -> [] in
      Hashtbl.replace tbl key ((spec, r) :: l))
    responses;
  let bits = Int64.bits_of_float in
  Hashtbl.fold
    (fun key group acc ->
      let spec, _ = List.hd group in
      let config =
        { cfg.Serve.engine_config with Mg_withloop.Engine.threads = cfg.Serve.solver_threads }
      in
      let config = Option.fold ~none:config ~some:(fun t -> Mg_withloop.Engine.with_tier t config) spec.Serve.tier in
      let e = Mg_withloop.Engine.create ~config () in
      let twin =
        Fun.protect
          ~finally:(fun () -> Mg_withloop.Engine.shutdown e)
          (fun () ->
            Driver.run ~engine:e ?opt:spec.Serve.opt ~impl:spec.Serve.impl ~cls:spec.Serve.cls ())
      in
      let mismatches =
        List.filter
          (fun (_, (r : Serve.response)) ->
            not (Int64.equal (bits r.Serve.rnm2) (bits twin.Driver.rnm2)))
          group
      in
      if mismatches <> [] then
        Printf.printf "serve_bench: BITWISE MISMATCH %s: %d of %d responses differ from twin %.17e\n"
          key (List.length mismatches) (List.length group) twin.Driver.rnm2;
      (key, List.length group, mismatches = []) :: acc)
    tbl []

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let parse_tenants s =
  let one part =
    match String.split_on_char ':' (String.trim part) with
    | [ name ] when name <> "" -> Some (name, 1)
    | [ name; w ] -> (
        match int_of_string_opt w with Some w when w >= 1 && name <> "" -> Some (name, w) | _ -> None)
    | _ -> None
  in
  let parts = List.map one (String.split_on_char ',' s) in
  if parts <> [] && List.for_all Option.is_some parts then Some (List.filter_map Fun.id parts)
  else None

let run duration workers threads capacity tenants clients rate cls impl kernels out metrics_out =
  let mix = { tenants; tiers = kernels; impl; cls } in
  let cfg =
    { (Serve.default_config ()) with Serve.workers; solver_threads = threads; capacity }
  in
  let server = Serve.create ~config:cfg () in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration in
  let cols =
    if rate > 0.0 then run_open server mix ~rate ~deadline
    else run_closed server mix ~clients ~deadline
  in
  Serve.shutdown ~drain:true server;
  let wall = Unix.gettimeofday () -. t0 in
  let stats = Serve.stats server in
  let responses = List.concat_map (fun c -> List.rev c.done_) cols in
  let failures = List.concat_map (fun c -> c.failed) cols in
  let n_done = List.length responses in
  let unverified =
    List.length (List.filter (fun (_, (r : Serve.response)) -> not r.Serve.verified) responses)
  in
  (* Accounting: every submission resolved exactly one way. *)
  let a = stats in
  let acc_ok =
    a.Mg_serve.Admission.submitted = a.Mg_serve.Admission.accepted + a.Mg_serve.Admission.rejected
    && a.Mg_serve.Admission.accepted
       = a.Mg_serve.Admission.completed + a.Mg_serve.Admission.cancelled
    && a.Mg_serve.Admission.queued = 0
    && a.Mg_serve.Admission.in_flight = 0
  in
  let twins = twin_check ~cfg responses in
  let bitwise_ok = List.for_all (fun (_, _, ok) -> ok) twins in
  let throughput = float_of_int n_done /. wall *. 60.0 in
  let q name p = Option.value (Metrics.quantile_of name p) ~default:0.0 in
  let p50 = ms_of_ns (q "serve.latency_ns" 0.5) and p99 = ms_of_ns (q "serve.latency_ns" 0.99) in
  Printf.printf
    "serve_bench: class=%s impl=%s workers=%d threads=%d capacity=%d %s duration=%.1fs\n"
    cls.Classes.name (Driver.impl_to_string impl) workers threads capacity
    (if rate > 0.0 then Printf.sprintf "open-loop rate=%.1f/s" rate
     else Printf.sprintf "closed-loop clients=%d" clients)
    wall;
  Printf.printf
    "serve_bench: submitted=%d accepted=%d rejected=%d completed=%d failed=%d cancelled=%d\n"
    a.Mg_serve.Admission.submitted a.Mg_serve.Admission.accepted a.Mg_serve.Admission.rejected
    a.Mg_serve.Admission.completed (List.length failures)
    a.Mg_serve.Admission.cancelled;
  Printf.printf "serve_bench: throughput=%.1f solves/min p50=%.1fms p99=%.1fms\n" throughput p50
    p99;
  List.iter
    (fun (name, _) ->
      let labels = [ ("tenant", name) ] in
      let tp p = Option.value (Metrics.quantile_of ~labels "serve.latency_ns" p) ~default:0.0 in
      let c = Metrics.value (Metrics.counter ~labels "serve.completed") in
      Printf.printf "serve_bench: tenant %-8s completed=%-5d p50=%.1fms p99=%.1fms\n" name c
        (ms_of_ns (tp 0.5)) (ms_of_ns (tp 0.99)))
    tenants;
  (* Shared plan cache across tenants: the whole point.  Statistics are
     per engine, so the shared cache's are the sum over the workers. *)
  let hits, misses =
    List.fold_left
      (fun (h, m) e ->
        let s = Mg_withloop.Engine.cache_stats e in
        (h + s.Mg_withloop.Plan_cache.hits, m + s.Mg_withloop.Plan_cache.misses))
      (0, 0) (Serve.engines server)
  in
  let hit_rate = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) in
  Printf.printf "serve_bench: shared plan cache hits=%d misses=%d hit_rate=%.4f\n" hits misses
    hit_rate;
  Printf.printf "serve_bench: accounting %s\n" (if acc_ok then "OK" else "BROKEN");
  Printf.printf "serve_bench: bitwise %s (%d specs, %d responses)\n"
    (if bitwise_ok then "OK" else "BROKEN")
    (List.length twins) n_done;
  if unverified > 0 then Printf.printf "serve_bench: %d UNVERIFIED responses\n" unverified;
  if failures <> [] then
    List.iter (fun m -> Printf.printf "serve_bench: FAILED request: %s\n" m) failures;
  let json =
    Json.Obj
      [ ("schema", Json.Int 1);
        ("suite", Json.String "mg_serve_bench");
        ("unix_time", Json.Float (Unix.time ()));
        ("env", Json.String (Mg_bench_util.Bench_util.Env.description ()));
        ("class", Json.String cls.Classes.name);
        ("impl", Json.String (Driver.impl_to_string impl));
        ("workers", Json.Int workers);
        ("solver_threads", Json.Int threads);
        ("capacity", Json.Int capacity);
        ( "arrival",
          Json.Obj
            [ ("mode", Json.String (if rate > 0.0 then "open" else "closed"));
              ("rate_per_s", Json.Float rate);
              ("clients", Json.Int clients);
            ] );
        ("duration_s", Json.Float wall);
        ( "totals",
          Json.Obj
            [ ("submitted", Json.Int a.Mg_serve.Admission.submitted);
              ("accepted", Json.Int a.Mg_serve.Admission.accepted);
              ("rejected", Json.Int a.Mg_serve.Admission.rejected);
              ("completed", Json.Int a.Mg_serve.Admission.completed);
              ("failed", Json.Int (List.length failures));
              ("cancelled", Json.Int a.Mg_serve.Admission.cancelled);
              ("throughput_per_min", Json.Float throughput);
              ("p50_ms", Json.Float p50);
              ("p99_ms", Json.Float p99);
            ] );
        ( "tenants",
          Json.List
            (List.map
               (fun (name, weight) ->
                 let labels = [ ("tenant", name) ] in
                 let tp p =
                   Option.value (Metrics.quantile_of ~labels "serve.latency_ns" p) ~default:0.0
                 in
                 Json.Obj
                   [ ("name", Json.String name);
                     ("weight", Json.Int weight);
                     ( "completed",
                       Json.Int (Metrics.value (Metrics.counter ~labels "serve.completed")) );
                     ("p50_ms", Json.Float (ms_of_ns (tp 0.5)));
                     ("p99_ms", Json.Float (ms_of_ns (tp 0.99)));
                   ])
               tenants) );
        ( "plan_cache",
          Json.Obj
            [ ("hits", Json.Int hits); ("misses", Json.Int misses);
              ("hit_rate", Json.Float hit_rate);
            ] );
        ( "bitwise",
          Json.List
            (List.map
               (fun (key, n, ok) ->
                 Json.Obj
                   [ ("spec", Json.String key); ("responses", Json.Int n); ("ok", Json.Bool ok) ])
               twins) );
      ]
  in
  Json.write_file out json;
  Printf.printf "serve_bench: results written to %s\n" out;
  Option.iter
    (fun path ->
      Mg_obs.Export.write_file path;
      Printf.printf "serve_bench: metrics written to %s\n" path)
    metrics_out;
  if acc_ok && bitwise_ok && unverified = 0 && failures = [] && n_done > 0 then 0 else 1

open Cmdliner

let duration_arg =
  Arg.(value & opt float 60.0
       & info [ "d"; "duration" ] ~docv:"SECS" ~doc:"Load duration in seconds.")

let workers_arg =
  Arg.(value & opt Exp_common.positive_int 2
       & info [ "workers" ] ~docv:"N" ~doc:"Serving worker domains (>= 1).")

let threads_arg =
  Arg.(value & opt Exp_common.positive_int 1
       & info [ "threads" ] ~docv:"N" ~doc:"Execution-pool size of each worker's engine (>= 1).")

let capacity_arg =
  Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc:"Admission queue bound.")

let tenants_conv =
  let parse s =
    match parse_tenants s with
    | Some ts -> Ok ts
    | None -> Error (`Msg (Printf.sprintf "bad tenant mix %S (expected name:weight,...)" s))
  in
  Arg.conv
    (parse, fun ppf ts ->
       Format.pp_print_string ppf
         (String.concat "," (List.map (fun (n, w) -> Printf.sprintf "%s:%d" n w) ts)))

let tenants_arg =
  Arg.(value & opt tenants_conv [ ("a", 3); ("b", 1) ]
       & info [ "tenants" ] ~docv:"NAME:W,..."
           ~doc:"Tenant mix with round-robin weights, e.g. $(b,a:3,b:1).")

let clients_arg =
  Arg.(value & opt int 4
       & info [ "clients" ] ~docv:"N"
           ~doc:"Closed-loop request loops (assigned to tenants round-robin); ignored under \
                 $(b,--rate).")

let rate_arg =
  Arg.(value & opt float 0.0
       & info [ "rate" ] ~docv:"R"
           ~doc:"Open-loop arrival rate in submissions/second; $(b,0) (default) selects the \
                 closed-loop model.")

let class_conv =
  let parse s =
    match Classes.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown class %S" s))
  in
  Arg.conv (parse, fun ppf (c : Classes.t) -> Format.pp_print_string ppf c.Classes.name)

let class_arg =
  Arg.(value & opt class_conv Classes.class_s
       & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Problem class (tiny, mini, S, W, ...).")

let impl_conv =
  let parse s =
    match Driver.impl_of_string s with
    | Some i -> Ok i
    | None -> Error (`Msg (Printf.sprintf "unknown implementation %S" s))
  in
  Arg.conv (parse, fun ppf i -> Format.pp_print_string ppf (Driver.impl_to_string i))

let impl_arg =
  Arg.(value & opt impl_conv Driver.Sac & info [ "i"; "impl" ] ~docv:"IMPL" ~doc:"Implementation.")

let kernels_conv =
  let parse s =
    let parts = List.map Mg_withloop.Engine.tier_of_string (String.split_on_char ',' (String.trim s)) in
    if parts <> [] && List.for_all Option.is_some parts then Ok (List.filter_map Fun.id parts)
    else Error (`Msg (Printf.sprintf "bad kernel mix %S (generic|cfun|native, comma-separated)" s))
  in
  Arg.conv
    (parse, fun ppf ts ->
       Format.pp_print_string ppf (String.concat "," (List.map Serve.tier_to_string ts)))

let kernels_arg =
  Arg.(value & opt kernels_conv [ Serve.Cfun ]
       & info [ "kernels" ] ~docv:"TIER,..."
           ~doc:"Kernel-tier mix cycled across requests: $(b,generic), $(b,cfun), $(b,native).")

let out_arg =
  Arg.(value & opt string "results/serve_bench.json"
       & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Write the results JSON here.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"PATH"
           ~doc:"Write the complete metrics registry (OpenMetrics text, or JSON-lines for \
                 $(b,.jsonl)) here after the run.")

let cmd =
  let doc = "drive the multi-tenant MG solver service with synthetic traffic" in
  Cmd.v
    (Cmd.info "mg_serve_bench" ~doc)
    Term.(const run $ duration_arg $ workers_arg $ threads_arg $ capacity_arg $ tenants_arg
          $ clients_arg $ rate_arg $ class_arg $ impl_arg $ kernels_arg $ out_arg $ metrics_out_arg)

let () = exit (Cmd.eval' cmd)
