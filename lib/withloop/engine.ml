module Domain_pool = Mg_smp.Domain_pool
module Sched_policy = Mg_smp.Sched_policy

(* The reified engine: everything that used to live in Wl's module
   globals — optimisation level, threading, scheduling, the plan
   cache, the pooling/observation gates — bundled into an explicit
   value that can be threaded through a solve.  Two engines with
   different configurations can run concurrently from separate
   domains without trampling each other.  A config is immutable once
   its engine exists: reconfiguring means deriving a new engine. *)

type opt_level = O0 | O1 | O2 | O3

let opt_level_of_string = function
  | "O0" | "o0" | "0" -> Some O0
  | "O1" | "o1" | "1" -> Some O1
  | "O2" | "o2" | "2" -> Some O2
  | "O3" | "o3" | "3" -> Some O3
  | _ -> None

let opt_level_to_string = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2" | O3 -> "O3"

type config = {
  opt_level : opt_level;
  threads : int;
  par_threshold : int;
  split_threshold : int;
  line_buffers : bool;
  cfun : bool;
  native : bool;
  native_cache : string option;
      (* AOT shared-object cache directory; [None] = the [_mg_native]
         default resolved at settings time. *)
  reuse : bool;
  pooling : bool;
  observe : bool;
  sched : Sched_policy.t;
  backend : Backend.t;
}

(* The kernel tier for bodies no fixed kernel recognises.  Native keeps
   cfun on underneath as its degradation target; generic switches both
   staging tiers off. *)
type tier = Generic | Cfun | Native

let tiers = [ Generic; Cfun; Native ]
let tier_to_string = function Generic -> "generic" | Cfun -> "cfun" | Native -> "native"

let tier_of_string s =
  List.find_opt (fun t -> tier_to_string t = String.lowercase_ascii s) tiers

let with_tier t c =
  match t with
  | Generic -> { c with cfun = false; native = false }
  | Cfun -> { c with cfun = true; native = false }
  | Native -> { c with cfun = true; native = true }

(* Literal defaults (no environment, no process atomics) so
   [config_of_env ~getenv:(fun _ -> None) ()] is deterministic
   whatever the test matrix exported. *)
let default_config =
  { opt_level = O3;
    threads = 1;
    par_threshold = Plan.default_par_threshold;
    split_threshold = 2048;
    line_buffers = true;
    cfun = true;
    native = false;
    native_cache = None;
    reuse = true;
    pooling = true;
    observe = true;
    sched = Sched_policy.default;
    backend = Backend.default;
  }

let bool_of_string_opt s =
  match String.lowercase_ascii (String.trim s) with
  | "0" | "off" | "false" | "no" -> Some false
  | "1" | "on" | "true" | "yes" -> Some true
  | _ -> None

let config_of_env ?(getenv = Sys.getenv_opt) () =
  let c = default_config in
  let flag name dflt =
    match getenv name with
    | Some v -> Option.value (bool_of_string_opt v) ~default:dflt
    | None -> dflt
  in
  let threads =
    match getenv "MG_PROCS" with
    | Some v -> (
        match int_of_string_opt (String.trim v) with Some n when n >= 1 -> n | _ -> c.threads)
    | None -> c.threads
  in
  let native_cache =
    match getenv "MG_NATIVE_CACHE" with
    | Some v when String.trim v <> "" -> Some (String.trim v)
    | _ -> c.native_cache
  in
  { c with
    threads;
    native = flag "MG_NATIVE" c.native;
    native_cache;
    reuse = flag "MG_REUSE" c.reuse;
    pooling = flag "MG_POOLING" c.pooling;
    observe = flag "MG_OBSERVE" c.observe;
  }

(* ------------------------------------------------------------------ *)
(* Engine values                                                       *)

type pool_ref =
  | Shared_global  (** Execute on {!Domain_pool.get_global}, resized to [config.threads]. *)
  | Owned of { mutable pool : Domain_pool.t option; pm : Mutex.t }

type t = {
  label : int;
      (* Root attribution id: each created engine mints its own;
         derived engines inherit the parent's, so the one-shot
         derivations Driver.run makes per solve all share one metric
         label instead of minting unbounded cardinality. *)
  config : config;
  cache : Plan.cache_entry Plan_cache.t;
  shards : Mg_obs.Scope.shards;
      (* The label's metric cells, interned once by the root engine and
         shared by its derivations like the label itself. *)
  stats_base : Plan_cache.stats Atomic.t;
      (* [Plan_cache.stats shards] at the last [cache_clear]. *)
  pool_ref : pool_ref;
}

let label_counter = Atomic.make 0

(* Registry of created (not derived) engines, for diagnostics — the
   bench harness dumps per-engine cache statistics from here. *)
let reg_mu = Mutex.create ()
let registry : t list ref = ref []

let register e =
  Mutex.lock reg_mu;
  registry := e :: !registry;
  Mutex.unlock reg_mu

let unregister e =
  Mutex.lock reg_mu;
  registry := List.filter (fun e' -> e' != e) !registry;
  Mutex.unlock reg_mu

let all () =
  Mutex.lock reg_mu;
  let l = List.rev !registry in
  Mutex.unlock reg_mu;
  l

(* [?share_cache] is the serving-layer combination derive cannot
   express: worker engines that pool compiled plans in one shared
   store (keys carry the optimisation fingerprint, and the cache is
   internally mutexed, so cross-domain sharing is sound) while each
   owning a private execution pool — concurrent solves never contend
   for workers, but the second tenant to ask for a given graph shape
   replays the first tenant's plan. *)
(* A registered root engine: it labels and interns its own metric
   shards. *)
let make_root ~config ~cache pool_ref =
  let label = Atomic.fetch_and_add label_counter 1 in
  let shards = Mg_obs.Scope.shards ~engine_id:label in
  let e =
    { label;
      config;
      cache;
      shards;
      stats_base = Atomic.make (Plan_cache.stats shards);
      pool_ref;
    }
  in
  register e;
  e

let create ?(config = config_of_env ()) ?share_cache () =
  let cache = match share_cache with Some p -> p.cache | None -> Plan_cache.create () in
  make_root ~config ~cache (Owned { pool = None; pm = Mutex.create () })

(* A derived engine is a cheap reconfiguration of its parent: it
   shares the parent's plan cache (keys carry the optimisation
   fingerprint, so entries from different configs never collide), its
   execution pool, its label and metric shards, but carries its own
   config record.  This is what [Wl.with_config] and [Driver.run] hand
   out. *)
let derive parent f = { parent with config = f parent.config }

let shutdown e =
  (match e.pool_ref with
  | Shared_global -> ()
  | Owned o ->
      Mutex.lock o.pm;
      (match o.pool with Some p -> Domain_pool.shutdown p | None -> ());
      o.pool <- None;
      Mutex.unlock o.pm);
  unregister e;
  Mg_obs.Scope.retire e.shards

(* ------------------------------------------------------------------ *)
(* The default engine and the dynamically current one                  *)

let default_mu = Mutex.create ()
let default_ref : t option ref = ref None

let default () =
  Mutex.lock default_mu;
  let e =
    match !default_ref with
    | Some e -> e
    | None ->
        let e = make_root ~config:(config_of_env ()) ~cache:(Plan_cache.create ()) Shared_global in
        default_ref := Some e;
        e
  in
  Mutex.unlock default_mu;
  e

(* Domain-local: each domain has its own current-engine binding, so a
   [with_current] on one domain is invisible to solves running on
   another. *)
let current_key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () =
  match !(Domain.DLS.get current_key) with Some e -> e | None -> default ()

let with_current e f =
  let cell = Domain.DLS.get current_key in
  let saved = !cell in
  cell := Some e;
  Fun.protect ~finally:(fun () -> cell := saved) f

(* ------------------------------------------------------------------ *)
(* Execution plumbing                                                  *)

let label e = e.label
let config e = e.config

let pool e () =
  match e.pool_ref with
  | Shared_global ->
      let p = Domain_pool.get_global () in
      if Domain_pool.size p = e.config.threads then p
      else begin
        Domain_pool.set_global_size e.config.threads;
        Domain_pool.get_global ()
      end
  | Owned o ->
      Mutex.lock o.pm;
      let p =
        match o.pool with
        | Some p when Domain_pool.size p = e.config.threads -> p
        | Some p ->
            Domain_pool.shutdown p;
            let p = Domain_pool.create e.config.threads in
            o.pool <- Some p;
            p
        | None ->
            let p = Domain_pool.create e.config.threads in
            o.pool <- Some p;
            p
      in
      Mutex.unlock o.pm;
      p

let settings e : Exec.settings =
  let c = e.config in
  let t = c.split_threshold in
  (* Staged kernel compilation and buffer reuse join at O2, like
     folding: O0/O1 keep the interpreted generic nest and fresh
     allocations so the ablation harness can isolate each
     optimisation. *)
  let fusion, factor, cfun_on, native_on, reuse_on =
    match c.opt_level with
    | O0 ->
        ( { Fusion.fold = false; split_strided = false; split_threshold = t },
          false, false, false, false )
    | O1 ->
        ( { Fusion.fold = false; split_strided = false; split_threshold = t },
          true, false, false, false )
    | O2 ->
        ( { Fusion.fold = true; split_strided = false; split_threshold = t },
          true, c.cfun, c.native, c.reuse )
    | O3 ->
        ( { Fusion.fold = true; split_strided = true; split_threshold = t },
          true, c.cfun, c.native, c.reuse )
  in
  { Exec.fusion;
    factor;
    line_buffers = c.line_buffers;
    cfun = cfun_on;
    native =
      (if native_on then Some (Option.value c.native_cache ~default:"_mg_native") else None);
    reuse = reuse_on;
    pooling = c.pooling;
    observe = c.observe;
    cache = e.cache;
    shards = e.shards;
    pool = pool e;
    par_threshold = c.par_threshold;
    sched = c.sched;
    backend = c.backend;
  }

let cache e = e.cache
let cache_length e = Plan_cache.length e.cache

let cache_stats e =
  let s = Plan_cache.stats e.shards and b = Atomic.get e.stats_base in
  { Plan_cache.hits = s.hits - b.hits;
    misses = s.misses - b.misses;
    evictions = s.evictions - b.evictions;
    uncacheable = s.uncacheable - b.uncacheable;
    saved_seconds = s.saved_seconds -. b.saved_seconds;
  }

let cache_clear e =
  Plan_cache.clear e.cache;
  Atomic.set e.stats_base (Plan_cache.stats e.shards);
  Mempool.clear ()

(* ------------------------------------------------------------------ *)
(* Solve-scoped telemetry                                              *)

(* A compact, human-readable digest of everything that shapes a solve,
   for flight-recorder records (distinct from Exec's structural cache
   fingerprint, which is engineered for key compactness). *)
let config_fingerprint e =
  let c = e.config in
  let flag name b = if b then name else "-" ^ name in
  Printf.sprintf "%s t%d %s %s %s %s %s %s sched=%s backend=%s"
    (opt_level_to_string c.opt_level)
    c.threads (flag "lb" c.line_buffers) (flag "cfun" c.cfun) (flag "nt" c.native)
    (flag "reuse" c.reuse) (flag "pool" c.pooling) (flag "obs" c.observe)
    (Sched_policy.to_string c.sched)
    (Backend.name c.backend)

let new_scope ?tenant e =
  Mg_obs.Scope.make ?tenant ~observe:e.config.observe ~shards:e.shards ~engine_id:e.label ()

let flight_log e =
  List.filter (fun (r : Mg_obs.Flight.record) -> r.Mg_obs.Flight.engine_id = e.label)
    (Mg_obs.Flight.records ())
