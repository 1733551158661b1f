open Mg_ndarray

type t = Ir.source

(* The engine allocates one Bigarray per materialised with-loop.  The
   default GC accounting for custom blocks schedules a major slice
   after only ~dozens of such allocations, which makes collection —
   not computation — dominate small grids.  SAC's runtime ships its
   own free-list allocator for exactly this reason (§5 of the paper);
   our analogues are the pooled arenas (Mempool) and relaxed
   custom-block ratios, set once when the engine is first used.  With
   the arenas recycling with-loop buffers, the Bigarrays still
   allocated are mostly ones that die with a solve (the initial grid,
   escaped results, the F77 port's grids), so [custom_major_ratio]
   stays at 100, not 300: their bytes then pace the major GC enough to
   sweep a solve's garbage — its graphs and those grids — within the
   next solve.  At 300 the cycles lagged: once the fixed kernels
   stopped allocating per row, two class-W solves' garbage piled up in
   the major heap (EXPERIMENTS.md E17).  [space_overhead] stays at
   OCaml's default (or OCAMLRUNPARAM's [o]): a served load whose forces
   all replay cached plans makes too little short-lived garbage to pace
   the major GC's sweeping, so raising it grows the major heap and the
   peak RSS (EXPERIMENTS.md E16).  An Atomic exchange, not Lazy:
   concurrent engines may force from two fresh domains at once, and
   Lazy.force is not domain-safe. *)
let gc_tuned = Atomic.make false

let tune_gc () =
  if not (Atomic.exchange gc_tuned true) then begin
    let g = Gc.get () in
    Gc.set
      { g with
        Gc.custom_major_ratio = 100;
        custom_minor_ratio = 300;
        custom_minor_max_size = 1 lsl 16;
      }
  end

(* ------------------------------------------------------------------ *)
(* Configuration: Engine.config is the only switchboard.  A scoped
   override derives an engine from the current one and installs it for
   the extent of the thunk — nothing is mutated, so it is safe under
   concurrency and unwinds with exceptions. *)

let with_config f k = Engine.with_current (Engine.derive (Engine.current ()) f) k
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
      (* The result leaves the engine: the release hook never recycles
         an escaped node, which the debug tripwire checks. *)
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
      (* Loop-carried: the buffer stays pool-owned and is recycled when
         its last registered consumer runs, not skipped for good. *)
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
