(* A solve-scoped trace context: one value per Driver.run call,
   installed domain-locally for the duration of the solve and
   propagated to Domain_pool workers by the pool itself (the job
   record carries the submitter's scope).  Everything a concurrent
   serving layer needs to attribute telemetry hangs off it: the solve
   id, the engine (label) id, an optional tenant tag, the per-engine
   observation gate, and the pre-interned labelled metric shards.

   Shard cells are interned once, at scope creation (cold path, takes
   the registry mutex); [bump]/[observe] then reach them by a short
   array scan over immutable strings — no lock, no hashtable — so
   attribution costs a DLS read plus a few string compares on paths
   that already pay an atomic metric update. *)

type t = {
  solve_id : int;
  engine_id : int;
  tenant : string option;
  observe : bool;
  labels : Metrics.labels;
  counters : (string * Metrics.counter) array;
  histograms : (string * Metrics.histogram) array;
  mutable stages : (string * int64) list;  (* reversed; driver domain only *)
}

let solve_ids = Atomic.make 0

let make ?tenant ?(observe = true) ?(counters = []) ?(histograms = []) ~engine_id () =
  let labels =
    ("engine", string_of_int engine_id)
    :: (match tenant with Some t -> [ ("tenant", t) ] | None -> [])
  in
  { solve_id = Atomic.fetch_and_add solve_ids 1;
    engine_id;
    tenant;
    observe;
    labels;
    counters = Array.of_list (List.map (fun n -> (n, Metrics.counter ~labels n)) counters);
    histograms =
      Array.of_list (List.map (fun n -> (n, Metrics.histogram ~labels n)) histograms);
    stages = [];
  }

let solve_id s = s.solve_id
let engine_id s = s.engine_id
let tenant s = s.tenant
let labels s = s.labels

(* ------------------------------------------------------------------ *)
(* The domain-local current scope                                      *)

let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get key)

(* The per-engine observation veto consumed by [Span.enabled]: outside
   any scope the global switch alone decides (default open), inside a
   scope the owning engine's [observe] flag gates the domain.  Only
   read after the global atomic said yes, so the disabled fast path
   never pays the DLS lookup. *)
let local_observe () =
  match !(Domain.DLS.get key) with None -> true | Some s -> s.observe

let with_opt so f =
  let cell = Domain.DLS.get key in
  let saved = !cell in
  cell := so;
  Fun.protect ~finally:(fun () -> cell := saved) f

let with_scope s f = with_opt (Some s) f

(* ------------------------------------------------------------------ *)
(* Shard accounting                                                    *)

let find_counter s name =
  let n = Array.length s.counters in
  let rec go i =
    if i >= n then None
    else
      let nm, c = s.counters.(i) in
      if String.equal nm name then Some c else go (i + 1)
  in
  go 0

let find_histogram s name =
  let n = Array.length s.histograms in
  let rec go i =
    if i >= n then None
    else
      let nm, h = s.histograms.(i) in
      if String.equal nm name then Some h else go (i + 1)
  in
  go 0

let bump name d =
  match current () with
  | None -> ()
  | Some s -> ( match find_counter s name with Some c -> Metrics.add c d | None -> ())

let observe name v =
  match current () with
  | None -> ()
  | Some s -> ( match find_histogram s name with Some h -> Metrics.observe h v | None -> ())

let counter_value s name =
  match find_counter s name with Some c -> Metrics.value c | None -> 0

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
