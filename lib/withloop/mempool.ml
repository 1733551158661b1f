open Mg_ndarray
module Metrics = Mg_obs.Metrics
module Scope = Mg_obs.Scope

(* Per-domain typed arenas.  Each domain keeps, in domain-local
   storage, a small set-associative cache of size-class slots: [nsets]
   sets of [nways] ways, each way serving exactly one element count
   with a fixed-depth stack of free buffers.  alloc/recycle touch only
   the calling domain's arena — a hash, a <= nways scan and an array
   push/pop — so the fast path takes no lock and generates no Hashtbl
   traffic.  The process-wide mutex below guards only the arena
   registry (creation, aggregate stats, clear, the debug cross-arena
   scan); every section that takes it is wrapped in a "mempool:lock"
   span precisely so profile traces can prove the hot path never
   appears under it.

   Recycling happens at the last use: the executor clears a node's
   cache in the same step that recycles its buffer, so the buffer
   re-enters its free slot at once and the next allocation of that
   size may take it — SAC's reference-counting discipline, with no
   region bracket around the iteration.  Escaped results ([Wl.force])
   are never recycled in the first place (the release hook skips
   escaped nodes); [escape]/[keep] are debug tripwires for that
   invariant rather than bookkeeping, and under debug [recycle] poisons
   every buffer with NaNs before it enters its slot, so a read after
   the last use fails at once in any norm.

   [clear] must not reach into arenas owned by other domains (their
   owner may be mid-allocation), so it bumps a global epoch instead:
   each arena lazily flushes itself — drops free stacks, zeroes its
   counters — when it next observes a stale epoch.  Aggregation skips
   stale arenas, so stats read as zeroed immediately.  Pool hits are
   not an arena counter: they are the sharded [mempool.pool_hits]
   family, and [clear] records its total as the baseline [stats]
   subtract. *)

let empty_buf : Ndarray.buffer = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0
let fresh_buffer len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len
let nsets = 16
let nways = 4
let max_per_class = 32

type slot = {
  mutable klen : int;  (* element count this way serves; -1 = unclaimed *)
  mutable stamp : int;  (* arena tick at last touch (LRU within the set) *)
  mutable bufs : Ndarray.buffer array;  (* stack of free buffers, 0..nfree-1 *)
  mutable nfree : int;
}

type arena = {
  epoch : int Atomic.t;
  slots : slot array;  (* nsets * nways, set-major *)
  mutable tick : int;
  (* counters: written by the owning domain only, read by any domain *)
  st_recycled : int Atomic.t;
  st_live : int Atomic.t;
  st_live_hw : int Atomic.t;
}

let registry : arena list ref = ref []
let registry_m = Mutex.create ()
let global_epoch = Atomic.make 0

(* Recycles of arenas whose owning domain has exited (folded in by the
   domain-pool exit hook so aggregate stats stay monotone). *)
let retired_recycled = ref 0

let debug = Atomic.make false
let set_debug b = Atomic.set debug b
let get_debug () = Atomic.get debug
let reuse_hits = Scope.counter_family "mempool.reuse_hits"
let pool_hits = Scope.counter_family "mempool.pool_hits"
let alloc_bytes = Scope.counter_family "mempool.alloc_bytes"
let g_bytes_live = Metrics.gauge "mempool.bytes_live"
let note_reuse () = Metrics.incr (Scope.here reuse_hits)

(* [mempool.pool_hits] total at the last [clear]. *)
let pool_hits_base = Atomic.make 0

let locked f =
  let span = Mg_obs.Span.start () in
  Mutex.lock registry_m;
  let fin () =
    Mutex.unlock registry_m;
    if Mg_obs.Span.active span then Mg_obs.Span.stop ~name:"mempool:lock" span
  in
  match f () with
  | v ->
      fin ();
      v
  | exception e ->
      fin ();
      raise e

let new_arena () =
  let a =
    { epoch = Atomic.make (Atomic.get global_epoch);
      slots = Array.init (nsets * nways) (fun _ -> { klen = -1; stamp = 0; bufs = [||]; nfree = 0 });
      tick = 0;
      st_recycled = Atomic.make 0;
      st_live = Atomic.make 0;
      st_live_hw = Atomic.make 0;
    }
  in
  locked (fun () -> registry := a :: !registry);
  a

let key = Domain.DLS.new_key new_arena

let flush_slots a =
  Array.iter
    (fun s ->
      for i = 0 to s.nfree - 1 do
        s.bufs.(i) <- empty_buf
      done;
      s.nfree <- 0;
      s.klen <- -1;
      s.stamp <- 0)
    a.slots

(* Lazy reaction to [clear]: drop free stacks and zero counters the
   next time the owner touches the pool. *)
let sync_epoch a =
  let e = Atomic.get global_epoch in
  if Atomic.get a.epoch <> e then begin
    flush_slots a;
    Atomic.set a.st_recycled 0;
    Atomic.set a.st_live 0;
    Atomic.set a.st_live_hw 0;
    Atomic.set a.epoch e
  end

let arena () =
  let a = Domain.DLS.get key in
  sync_epoch a;
  a

let live_add a d =
  let v = Atomic.get a.st_live + d in
  Atomic.set a.st_live v;
  let hw = Atomic.get a.st_live_hw in
  if v > hw then begin
    Atomic.set a.st_live_hw v;
    Metrics.add_gauge g_bytes_live (float_of_int (v - hw))
  end

let live_sub a d =
  let v = Atomic.get a.st_live - d in
  Atomic.set a.st_live (if v < 0 then 0 else v)

(* Spread the entropy of typical element counts (products of grid
   extents) into the set index. *)
let set_of len = ((len * 0x9E3779B1) lsr 24) land (nsets - 1)

let take a len =
  let base = set_of len * nways in
  let rec go i =
    if i = nways then None
    else
      let s = Array.unsafe_get a.slots (base + i) in
      if s.klen = len && s.nfree > 0 then begin
        let n = s.nfree - 1 in
        s.nfree <- n;
        let b = Array.unsafe_get s.bufs n in
        Array.unsafe_set s.bufs n empty_buf;
        a.tick <- a.tick + 1;
        s.stamp <- a.tick;
        Some b
      end
      else go (i + 1)
  in
  go 0

(* The way serving [len], claiming an unclaimed way or evicting the
   least-recently-touched one (its free buffers fall to the GC). *)
let slot_for a len =
  let base = set_of len * nways in
  let rec find i =
    if i = nways then None
    else
      let s = a.slots.(base + i) in
      if s.klen = len then Some s else find (i + 1)
  in
  match find 0 with
  | Some s -> s
  | None ->
      let victim = ref a.slots.(base) in
      (try
         for i = 0 to nways - 1 do
           let s = a.slots.(base + i) in
           if s.klen = -1 then begin
             victim := s;
             raise Exit
           end;
           if s.stamp < !victim.stamp then victim := s
         done
       with Exit -> ());
      let s = !victim in
      for i = 0 to s.nfree - 1 do
        s.bufs.(i) <- empty_buf
      done;
      s.nfree <- 0;
      s.klen <- len;
      s

let put a b =
  let len = Bigarray.Array1.dim b in
  let s = slot_for a len in
  a.tick <- a.tick + 1;
  s.stamp <- a.tick;
  if s.nfree >= max_per_class then false
  else begin
    if s.nfree = Array.length s.bufs then begin
      let cap = min max_per_class (max 4 (2 * Array.length s.bufs)) in
      let nb = Array.make cap empty_buf in
      Array.blit s.bufs 0 nb 0 s.nfree;
      s.bufs <- nb
    end;
    s.bufs.(s.nfree) <- b;
    s.nfree <- s.nfree + 1;
    true
  end

let in_free_slot a b =
  let len = Bigarray.Array1.dim b in
  let base = set_of len * nways in
  let rec go i =
    i < nways
    && (let s = a.slots.(base + i) in
        (s.klen = len
        &&
        let rec scan j = j < s.nfree && (s.bufs.(j) == b || scan (j + 1)) in
        scan 0)
        || go (i + 1))
  in
  go 0

(* [~pooling] is the calling engine's config flag: the engine config is
   the only pooling switch. *)
let alloc ~pooling shape =
  let len = Shape.num_elements shape in
  if len = 0 || not pooling then begin
    Metrics.add (Scope.here alloc_bytes) (8 * len);
    Ndarray.create_uninit shape
  end
  else begin
    let a = arena () in
    let b =
      match take a len with
      | Some b ->
          Metrics.incr (Scope.here pool_hits);
          b
      | None ->
          Metrics.add (Scope.here alloc_bytes) (8 * len);
          fresh_buffer len
    in
    live_add a (8 * len);
    Ndarray.of_buffer shape b
  end

let recycle ~pooling (arr : Ndarray.t) =
  let len = Ndarray.size arr in
  if len > 0 && pooling then begin
    let a = arena () in
    let b = arr.Ndarray.data in
    if Atomic.get debug then begin
      if in_free_slot a b then failwith "Mempool: double recycle of a pooled buffer";
      Bigarray.Array1.fill b Float.nan
    end;
    if put a b then Atomic.set a.st_recycled (Atomic.get a.st_recycled + 1);
    live_sub a (8 * len)
  end

(* A result that leaves the engine, or a loop-carried iterate, must
   never sit in a free slot: the release hook skips escaped nodes and a
   live iterate's count never reaches zero.  Under debug these verify
   that invariant at the force/materialize boundary — a hit means a
   refcount bug upstream. *)
let check_unpooled what (arr : Ndarray.t) =
  if Atomic.get debug && Ndarray.size arr > 0 then begin
    let a = arena () in
    let b = arr.Ndarray.data in
    if in_free_slot a b then
      failwith ("Mempool: " ^ what ^ " of a pooled (free) buffer")
  end

let escape = check_unpooled "escape"
let keep = check_unpooled "keep"

(* {2 Cold paths} *)

let assert_unpooled (b : Ndarray.buffer) ~ctx =
  let pooled =
    locked (fun () ->
        let e = Atomic.get global_epoch in
        List.exists (fun a -> Atomic.get a.epoch = e && in_free_slot a b) !registry)
  in
  if pooled then failwith (Printf.sprintf "Mempool: %s aliases a pooled (free) buffer" ctx)

let clear () =
  ignore (Atomic.fetch_and_add global_epoch 1);
  locked (fun () -> retired_recycled := 0);
  Atomic.set pool_hits_base (Metrics.value (Scope.total pool_hits));
  Metrics.set_gauge g_bytes_live 0.0;
  sync_epoch (Domain.DLS.get key)

type snapshot = {
  reused : int;
  recycled : int;
  bytes_live : int;
  bytes_live_hw : int;
  arenas : int;
}

let snapshot () =
  let reused = Metrics.value (Scope.total pool_hits) - Atomic.get pool_hits_base in
  locked (fun () ->
      let e = Atomic.get global_epoch in
      List.fold_left
        (fun acc a ->
          if Atomic.get a.epoch <> e then acc (* flushes to zero on next touch *)
          else
            { acc with
              recycled = acc.recycled + Atomic.get a.st_recycled;
              bytes_live = acc.bytes_live + Atomic.get a.st_live;
              bytes_live_hw = acc.bytes_live_hw + Atomic.get a.st_live_hw;
              arenas = acc.arenas + 1;
            })
        { reused;
          recycled = !retired_recycled;
          bytes_live = 0;
          bytes_live_hw = 0;
          arenas = 0;
        }
        !registry)

let stats () =
  let s = snapshot () in
  (s.reused, s.recycled)

(* Domain-pool integration: workers build their arena at spawn (first
   touch would otherwise land mid-kernel) and retire it on exit so its
   counters survive in the aggregate and its registry entry is
   dropped. *)
let init_local () = ignore (arena ())

let retire_local () =
  let a = Domain.DLS.get key in
  flush_slots a;
  locked (fun () ->
      if Atomic.get a.epoch = Atomic.get global_epoch then
        retired_recycled := !retired_recycled + Atomic.get a.st_recycled;
      registry := List.filter (fun x -> x != a) !registry)

let () = Mg_smp.Domain_pool.set_domain_hooks ~on_start:init_local ~on_exit:retire_local
