open Mg_withloop
open Mg_smp

type impl = Sac | F77 | C | Periodic

let impl_of_string s =
  match String.lowercase_ascii s with
  | "sac" -> Some Sac
  | "f77" | "fortran" | "fortran-77" -> Some F77
  | "c" | "openmp" -> Some C
  | "periodic" | "sac-periodic" -> Some Periodic
  | _ -> None

let impl_to_string = function Sac -> "sac" | F77 -> "f77" | C -> "c" | Periodic -> "periodic"

type result = {
  impl : impl;
  cls : Classes.t;
  rnm2 : float;
  seconds : float;
  status : Verify.status;
  events : Trace.event list;
}

(* Each call derives a one-shot engine from the caller's (or the
   given) engine and installs it for the duration of the solve: no
   global is mutated, nothing needs restoring, and a raising solve
   cannot leak settings into the next caller.  Concurrent runs with
   different configurations are safe when each uses its own created
   engine (derived engines share their parent's execution pool, which
   is not reentrant). *)
let run ?engine ?tenant ?opt ?threads ?sched ?backend ?cfun ?native ?reuse ?pooling
    ?line_buffers ?(trace = false) ~impl ~cls () =
  let base = match engine with Some e -> e | None -> Engine.current () in
  let e =
    Engine.derive base (fun c ->
        { c with
          Engine.opt_level = Option.value opt ~default:c.Engine.opt_level;
          threads = Option.value threads ~default:c.Engine.threads;
          sched = Option.value sched ~default:c.Engine.sched;
          backend = Option.value backend ~default:c.Engine.backend;
          cfun = Option.value cfun ~default:c.Engine.cfun;
          native = Option.value native ~default:c.Engine.native;
          reuse = Option.value reuse ~default:c.Engine.reuse;
          pooling = Option.value pooling ~default:c.Engine.pooling;
          line_buffers = Option.value line_buffers ~default:c.Engine.line_buffers;
        })
  in
  Engine.with_current e (fun () ->
      (* One trace context per solve: every span, labelled-metric bump
         and flight record below is attributed to this engine's label,
         even from pool worker domains (the pool mirrors the scope). *)
      let scope = Engine.new_scope ?tenant e in
      Mg_obs.Scope.with_scope scope (fun () ->
          (* Per-solve deltas of the engine's cells: snapshot before,
             subtract after.  Cheap — the cells are pre-interned. *)
          let cell f = Mg_obs.Metrics.value (Mg_obs.Scope.here f) in
          let h0 = cell Plan_cache.hits
          and m0 = cell Plan_cache.misses
          and p0 = cell Mempool.pool_hits
          and r0 = cell Mempool.reuse_hits
          and a0 = cell Mempool.alloc_bytes in
          let body () =
            Mg_obs.Span.with_
              ~attrs:[ ("impl", impl_to_string impl); ("class", cls.Classes.name) ]
              ~name:"driver:run"
              (fun () ->
                match impl with
                | Sac -> Mg_sac.run cls
                | F77 -> Mg_f77.run cls
                | C -> Mg_c.run cls
                | Periodic -> Mg_periodic.run cls)
          in
          let events, (rnm2, seconds) =
            if trace then Trace.with_collector body else ([], body ())
          in
          (* Only the Fortran port preserves the reference code's exact
             floating-point evaluation order; the C port regroups neighbour
             sums and the with-loop optimiser reassociates freely. *)
          let exact_order = impl = F77 in
          let status = Verify.check ~exact_order cls ~rnm2 in
          Mg_obs.Flight.note
            ~solve_id:(Mg_obs.Scope.solve_id scope)
            ~engine_id:(Mg_obs.Scope.engine_id scope)
            ~tenant ~config:(Engine.config_fingerprint e)
            ~wall_ns:(Int64.of_float (seconds *. 1e9))
            ~stages:(Mg_obs.Scope.stages scope)
            ~cache_hits:(cell Plan_cache.hits - h0)
            ~cache_misses:(cell Plan_cache.misses - m0)
            ~pool_hits:(cell Mempool.pool_hits - p0)
            ~reuse_hits:(cell Mempool.reuse_hits - r0)
            ~alloc_bytes:(cell Mempool.alloc_bytes - a0)
            ~bytes_live_hw:(Mempool.snapshot ()).Mempool.bytes_live_hw
            ~rnm2 ~verified:(Verify.status_ok status) ();
          { impl; cls; rnm2; seconds; status; events }))

let traced_run ~impl ~cls = run ~threads:1 ~trace:true ~impl ~cls ()

let pp_result ppf r =
  Format.fprintf ppf "%-4s %a: rnm2 = %.13e  time = %8.3f s  %a"
    (impl_to_string r.impl) Classes.pp r.cls r.rnm2 r.seconds Verify.pp_status r.status
