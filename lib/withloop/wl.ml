open Mg_ndarray

type t = Ir.source

type opt_level = Engine.opt_level = O0 | O1 | O2 | O3

(* The engine allocates one Bigarray per materialised with-loop.  The
   default GC accounting for custom blocks schedules a major slice
   after only ~dozens of such allocations, which makes collection —
   not computation — dominate small grids.  SAC's runtime ships its
   own free-list allocator for exactly this reason (§5 of the paper);
   our analogue is relaxed custom-block ratios, set once when the
   engine is first used.  [space_overhead] stays at OCaml's default
   (or OCAMLRUNPARAM's [o]): a served load whose forces all replay
   cached plans makes too little short-lived garbage to pace the
   major GC's sweeping, so raising it grows the major heap and the
   peak RSS (EXPERIMENTS.md E16).  An Atomic exchange, not Lazy:
   concurrent engines may force from two fresh domains at once, and
   Lazy.force is not domain-safe. *)
let gc_tuned = Atomic.make false

let tune_gc () =
  if not (Atomic.exchange gc_tuned true) then begin
    let g = Gc.get () in
    Gc.set
      { g with
        Gc.custom_major_ratio = 300;
        custom_minor_ratio = 300;
        custom_minor_max_size = 1 lsl 16;
      }
  end

(* ------------------------------------------------------------------ *)
(* Compat shim over the engine API.
   get_* read the calling domain's current engine (so they observe the
   scoped with_* combinators, as they observed the globals before);
   set_* mutate the default engine — a hard error under
   MG_ENGINE_STRICT=1.  with_* derive a reconfigured engine and
   install it for the extent of the thunk: no mutation anywhere, so
   they are strict-safe and concurrency-safe. *)

let cfg () = Engine.config (Engine.current ())
let with_config f k = Engine.with_current (Engine.derive (Engine.current ()) f) k
let with_engine = Engine.with_current

let set_opt_level l = Engine.update_default ~shim:"Wl.set_opt_level" (fun c -> { c with Engine.opt_level = l })
let get_opt_level () = (cfg ()).Engine.opt_level
let with_opt_level l f = with_config (fun c -> { c with Engine.opt_level = l }) f

let set_threads n = Engine.update_default ~shim:"Wl.set_threads" (fun c -> { c with Engine.threads = n })
let get_threads () = (cfg ()).Engine.threads
let with_threads n f = with_config (fun c -> { c with Engine.threads = n }) f

let set_par_threshold n =
  Engine.update_default ~shim:"Wl.set_par_threshold" (fun c -> { c with Engine.par_threshold = n })

let get_par_threshold () = (cfg ()).Engine.par_threshold
let with_par_threshold n f = with_config (fun c -> { c with Engine.par_threshold = n }) f

let set_split_threshold n =
  Engine.update_default ~shim:"Wl.set_split_threshold" (fun c -> { c with Engine.split_threshold = n })

let get_split_threshold () = (cfg ()).Engine.split_threshold
let with_split_threshold n f = with_config (fun c -> { c with Engine.split_threshold = n }) f

let set_line_buffers b =
  Engine.update_default ~shim:"Wl.set_line_buffers" (fun c -> { c with Engine.line_buffers = b })

let get_line_buffers () = (cfg ()).Engine.line_buffers
let with_line_buffers b f = with_config (fun c -> { c with Engine.line_buffers = b }) f

let set_cfun b = Engine.update_default ~shim:"Wl.set_cfun" (fun c -> { c with Engine.cfun = b })
let get_cfun () = (cfg ()).Engine.cfun
let with_cfun b f = with_config (fun c -> { c with Engine.cfun = b }) f

let set_native b = Engine.update_default ~shim:"Wl.set_native" (fun c -> { c with Engine.native = b })
let get_native () = (cfg ()).Engine.native
let with_native b f = with_config (fun c -> { c with Engine.native = b }) f

let set_reuse b = Engine.update_default ~shim:"Wl.set_reuse" (fun c -> { c with Engine.reuse = b })
let get_reuse () = (cfg ()).Engine.reuse
let with_reuse b f = with_config (fun c -> { c with Engine.reuse = b }) f

let set_sched_policy p =
  Engine.update_default ~shim:"Wl.set_sched_policy" (fun c -> { c with Engine.sched = p })

let get_sched_policy () = (cfg ()).Engine.sched
let with_sched_policy p f = with_config (fun c -> { c with Engine.sched = p }) f

let set_backend b = Engine.update_default ~shim:"Wl.set_backend" (fun c -> { c with Engine.backend = b })
let get_backend () = (cfg ()).Engine.backend
let with_backend b f = with_config (fun c -> { c with Engine.backend = b }) f

(* Pooling is both an engine flag and a process kill-switch: the
   atomic default must reach Mempool calls made outside any engine
   (worker domains, direct test probes), so the setter and the scoped
   combinator keep it in sync with the engine config. *)
let set_pooling b =
  Engine.update_default ~shim:"Wl.set_pooling" (fun c -> { c with Engine.pooling = b });
  Mempool.set_pooling b

let get_pooling () = (cfg ()).Engine.pooling

let with_pooling b f =
  let saved = Mempool.get_pooling () in
  Mempool.set_pooling b;
  Fun.protect
    ~finally:(fun () -> Mempool.set_pooling saved)
    (fun () -> with_config (fun c -> { c with Engine.pooling = b }) f)

(* Observation is both an engine flag and a process switch, like
   pooling: the global span flag is the cheap primary gate (read
   first, so disabled spans stay nanosecond-cheap on worker domains),
   and the engine's [observe] flag is the per-engine veto — consumed
   by Exec and carried into each solve's {!Mg_obs.Scope}.  The setter
   keeps the two in sync so flipping one switch cannot leave the
   other contradicting it; the getter reports the conjunction — what
   a solve on the current engine would actually record. *)
let set_observe b =
  Engine.update_default ~shim:"Wl.set_observe" (fun c -> { c with Engine.observe = b });
  Mg_obs.Span.set_enabled b

let get_observe () = Mg_obs.Span.enabled () && (cfg ()).Engine.observe

let with_observe b f =
  Mg_obs.Span.with_enabled b (fun () -> with_config (fun c -> { c with Engine.observe = b }) f)

let with_pool_scope f = Mempool.with_scope ~owner:(Engine.id (Engine.current ())) f

let set_kernel_timing b = Kernel.set_timing b
let get_kernel_timing () = Kernel.get_timing ()

let settings () : Exec.settings = Engine.settings (Engine.current ())

(* ------------------------------------------------------------------ *)
(* The DSL                                                             *)

let of_ndarray a = Ir.Arr a

let force : t -> Ndarray.t = function
  | Ir.Arr a -> a
  | Ir.Node n ->
      tune_gc ();
      Ir.mark_escaped n;
      let a = Exec.force (settings ()) n in
      (* The result leaves the engine: exempt it from any active arena
         scope so a bracketing reset cannot reclaim it under the
         caller. *)
      Mempool.escape a;
      a

(* Force without escaping: the value is materialised (so consumers
   read a buffer instead of folding a deep graph) but stays eligible
   for reference-count-driven reuse — its buffer may be overwritten in
   place by a later consumer, or recycled, once its last registered
   consumer executes.  The driver's V-cycle uses this at iteration
   boundaries; user code that keeps the array must use [force]. *)
let materialize : t -> t = function
  | Ir.Arr _ as s -> s
  | Ir.Node n as s ->
      tune_gc ();
      let a = Exec.force (settings ()) n in
      (* Loop-carried: the buffer outlives the current arena scope but
         stays pool-owned, so its reclamation is deferred to the
         enclosing scope's reset instead of being skipped for good. *)
      Mempool.keep a;
      s

let run_reference : t -> Ndarray.t = fun s -> Reference.run s

let fold_reference ~op ~neutral gen body =
  Reference.fold ~op:(Exec.apply_op op) ~neutral gen body

let shape = Ir.source_shape
let rank s = Shape.rank (shape s)
let dim = rank

let sel s iv = Ndarray.get (force s) iv

module Expr = struct
  type e = Ir.expr

  let const c = Ir.Const c
  let read s = Ir.Read (s, Ixmap.identity (rank s))
  let read_at s m = Ir.Read (s, m)
  let read_offset s d = Ir.Read (s, Ixmap.offset d)
  let of_fun f = Ir.Opaque f
  let neg e = Ir.Neg e
  let sqrt e = Ir.Sqrt e
  let abs e = Ir.Absf e
  let ( + ) a b = Ir.Add (a, b)
  let ( - ) a b = Ir.Sub (a, b)
  let ( * ) a b = Ir.Mul (a, b)
  let ( / ) a b = Ir.Divf (a, b)
end

let to_parts parts = List.map (fun (gen, body) -> { Ir.gen; body }) parts

let genarray ?barrier ?default shp parts : t =
  Ir.Node (Ir.genarray ?barrier ?default shp (to_parts parts))

let modarray ?barrier base parts : t = Ir.Node (Ir.modarray ?barrier base (to_parts parts))

let fold ~op ~neutral gen body = Exec.eval_fold (settings ()) ~op ~neutral gen body

let cache_stats () = Engine.cache_stats (Engine.current ())
let cache_clear () = Engine.cache_clear (Engine.current ())

let opt_level_of_string = Engine.opt_level_of_string
let opt_level_to_string = Engine.opt_level_to_string
