(* A solve-scoped trace context: one value per Driver.run call,
   installed domain-locally for the duration of the solve and
   propagated to Domain_pool workers by the pool itself (the job
   record carries the submitter's scope).  Everything a concurrent
   serving layer needs to attribute telemetry hangs off it: the solve
   id, the engine (label) id, an optional tenant tag and the engine's
   shard table.

   Shard tables: each instrumented module declares its sharded
   families once, at initialisation, and gets back a handle holding
   the family's slot.  A root engine interns one table — one
   [engine]-labelled cell per declared family — at creation, and
   retires it at shutdown.  A write picks its cell by an array index
   into the table (or, without one, takes the unlabelled cell): no
   lock, no hashtable, no name comparison on the hot path. *)

type _ kind =
  | Counter : Metrics.counter kind
  | Gauge : Metrics.gauge kind
  | Histogram : Metrics.histogram kind

type 'a family = { kind : 'a kind; slot : int; total : 'a }

(* Declared families per kind, newest first, as (name, fixed labels):
   slot [i] of a kind is the [i]-th declaration. *)
let declared_m = Mutex.create ()
let counters = ref []
let gauges = ref []
let histograms = ref []

let declare (type a) (kind : a kind) names (make : ?labels:Metrics.labels -> string -> a)
    labels name : a family =
  Mutex.lock declared_m;
  let slot = List.length !names in
  names := (name, labels) :: !names;
  Mutex.unlock declared_m;
  { kind; slot; total = make ~labels name }

let counter_family ?(labels = []) name = declare Counter counters Metrics.counter labels name
let gauge_family = declare Gauge gauges Metrics.gauge []
let histogram_family = declare Histogram histograms Metrics.histogram []
let total f = f.total

type shards = {
  shard_labels : Metrics.labels;
  scounters : Metrics.counter array;
  sgauges : Metrics.gauge array;
  shistograms : Metrics.histogram array;
}

let unattributed = { shard_labels = []; scounters = [||]; sgauges = [||]; shistograms = [||] }

let shards ~engine_id =
  let labels = [ ("engine", string_of_int engine_id) ] in
  Mutex.lock declared_m;
  let c = !counters and g = !gauges and h = !histograms in
  Mutex.unlock declared_m;
  let cells make ds = Array.of_list (List.rev_map (fun (n, ls) -> make (labels @ ls) n) ds) in
  { shard_labels = labels;
    scounters = cells (fun labels -> Metrics.counter ~labels) c;
    sgauges = cells (fun labels -> Metrics.gauge ~labels) g;
    shistograms = cells (fun labels -> Metrics.histogram ~labels) h;
  }

let retire t = Metrics.retire t.shard_labels

(* A family declared after the table was interned has no slot in it:
   its events go to the unlabelled cell. *)
let shard (type a) t (f : a family) : a =
  let pick (cells : a array) = if f.slot < Array.length cells then cells.(f.slot) else f.total in
  match f.kind with
  | Counter -> pick t.scounters
  | Gauge -> pick t.sgauges
  | Histogram -> pick t.shistograms

type t = {
  solve_id : int;
  engine_id : int;
  tenant : string option;
  shards : shards;
  mutable stages : (string * int64) list;  (* reversed; driver domain only *)
}

let solve_ids = Atomic.make 0

let make ?tenant ?(shards = unattributed) ~engine_id () =
  { solve_id = Atomic.fetch_and_add solve_ids 1; engine_id; tenant; shards; stages = [] }

let solve_id s = s.solve_id
let engine_id s = s.engine_id
let tenant s = s.tenant

(* ------------------------------------------------------------------ *)
(* The domain-local current scope                                      *)

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get key)

let with_opt so f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell := so;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_scope s f = with_opt (Some s) f

(* ------------------------------------------------------------------ *)
(* Shard accounting                                                    *)

let here f = shard (match current () with Some s -> s.shards | None -> unattributed) f

(* ------------------------------------------------------------------ *)
(* Stage timing (flight-recorder feed)                                 *)

(* Cheap per-phase accounting for the flight recorder: two clock reads
   and one cons per stage, always on.  The stage list is mutated
   without synchronisation — stages are only ever timed on the domain
   that owns the solve (the driver's), never from pool workers. *)
let time_stage name f =
  match current () with
  | None -> f ()
  | Some s ->
      let t0 = Monotonic_clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let dt = Int64.sub (Monotonic_clock.now ()) t0 in
          s.stages <- (name, dt) :: s.stages)
        f

let stages s = List.rev s.stages
