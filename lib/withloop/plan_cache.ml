open Mg_ndarray
module Metrics = Mg_obs.Metrics
module Span = Mg_obs.Span

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  uncacheable : int;
  saved_seconds : float;
}

(* The process-wide aggregate, backed by the metrics registry so the
   cache shows up in metric dumps (profile report, bench JSON) without
   separate plumbing.  Per-instance figures live on each [t] below;
   every note_* bumps both. *)
let c_hits = Metrics.counter "plan_cache.hits"
let c_misses = Metrics.counter "plan_cache.misses"
let c_evictions = Metrics.counter "plan_cache.evictions"
let c_uncacheable = Metrics.counter "plan_cache.uncacheable"
let g_saved = Metrics.gauge "plan_cache.saved_seconds"

(* ------------------------------------------------------------------ *)
(* Keyed store with LRU eviction.  Recency is a logical tick; eviction
   scans — capacity is small and overflow rare, so O(n) eviction beats
   maintaining an intrusive list.  Each instance carries its own
   statistics and a mutex: a cache belongs to one engine, and an
   engine may be driven from several domains (or one engine's plans
   replayed while another domain compiles into the same store), so
   every store/stat operation is serialised per instance.  The lock is
   uncontended in the common one-engine-per-domain regime — one
   ownerless futex acquisition per force. *)

type 'a entry = { value : 'a; mutable last : int }

type 'a t = {
  tbl : (string, 'a entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  m : Mutex.t;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_uncacheable : int;
  mutable s_saved : float;
}

let create ?(capacity = 512) () =
  { tbl = Hashtbl.create 64;
    capacity;
    tick = 0;
    m = Mutex.create ();
    s_hits = 0;
    s_misses = 0;
    s_evictions = 0;
    s_uncacheable = 0;
    s_saved = 0.0;
  }

let locked c f =
  Mutex.lock c.m;
  match f () with
  | v ->
      Mutex.unlock c.m;
      v
  | exception e ->
      Mutex.unlock c.m;
      raise e

let find c key =
  locked c (fun () ->
      match Hashtbl.find_opt c.tbl key with
      | None -> None
      | Some e ->
          c.tick <- c.tick + 1;
          e.last <- c.tick;
          Some e.value)

(* Called under the instance lock (from [add]). *)
let evict_lru c =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, last) when last <= e.last -> acc
        | _ -> Some (k, e.last))
      c.tbl None
  in
  match victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove c.tbl k;
      c.s_evictions <- c.s_evictions + 1;
      Metrics.incr c_evictions;
      Mg_obs.Scope.bump "plan_cache.evictions" 1

let add c key value =
  locked c (fun () ->
      if not (Hashtbl.mem c.tbl key) && Hashtbl.length c.tbl >= c.capacity then evict_lru c;
      c.tick <- c.tick + 1;
      Hashtbl.replace c.tbl key { value; last = c.tick })

let clear c = locked c (fun () -> Hashtbl.reset c.tbl)
let length c = locked c (fun () -> Hashtbl.length c.tbl)

let stats c =
  locked c (fun () ->
      { hits = c.s_hits;
        misses = c.s_misses;
        evictions = c.s_evictions;
        uncacheable = c.s_uncacheable;
        saved_seconds = c.s_saved;
      })

let reset_stats c =
  locked c (fun () ->
      c.s_hits <- 0;
      c.s_misses <- 0;
      c.s_evictions <- 0;
      c.s_uncacheable <- 0;
      c.s_saved <- 0.0)

let note_hit c ~saved:s =
  locked c (fun () ->
      c.s_hits <- c.s_hits + 1;
      c.s_saved <- c.s_saved +. s);
  Metrics.incr c_hits;
  Mg_obs.Scope.bump "plan_cache.hits" 1;
  Metrics.add_gauge g_saved s;
  Span.instant ~name:"plan-cache:hit" ()

let note_miss c =
  locked c (fun () -> c.s_misses <- c.s_misses + 1);
  Metrics.incr c_misses;
  Mg_obs.Scope.bump "plan_cache.misses" 1;
  Span.instant ~name:"plan-cache:miss" ()

let note_uncacheable c =
  locked c (fun () -> c.s_uncacheable <- c.s_uncacheable + 1);
  Metrics.incr c_uncacheable;
  Mg_obs.Scope.bump "plan_cache.uncacheable" 1

(* ------------------------------------------------------------------ *)
(* Structural keys.

   The serialisation must distinguish any two graphs the executor
   compiles differently.  Compilation consults, per node: shape, spec
   kind, generators, bodies (operators, index maps, float constants),
   the barrier flag, the current reference count (folding and in-place
   stealing depend on it) and whether the node is already materialised
   (a cached node is compiled exactly like a leaf array).  Leaf arrays
   contribute their shape, their strides and their aliasing pattern —
   reads of one buffer through two sources must key like reads of one
   buffer, because clustering merges them — but never their address.

   Floats are printed with %h (hex, exact round trip), so coefficient
   values that differ in any bit produce different keys. *)

(* Mirror of {!Fusion.wants_fold}: only nodes satisfying this can be
   substituted into a consumer, so only they need structural recursion.
   Everything else is materialised by fusion and enters the compiled
   plan as a bare buffer — keyed as a leaf, which bounds the walk to
   the fold horizon instead of the whole unforced graph. *)
let is_selection (n : Ir.node) =
  let parts =
    match n.Ir.spec with Ir.Genarray { parts; _ } -> parts | Ir.Modarray { parts; _ } -> parts
  in
  List.for_all
    (fun (p : Ir.part) -> match p.Ir.body with Ir.Const _ | Ir.Read _ -> true | _ -> false)
    parts

let key_of_graph ~env ~fold (root : Ir.node) : (string * Ir.source array) option =
  let buf = Buffer.create 256 in
  Buffer.add_string buf env;
  let bindings = ref [] in
  let nbind = ref 0 in
  let node_slots : (Ir.node * int) list ref = ref [] in
  let buf_slots : (Ndarray.buffer * int) list ref = ref [] in
  let ok = ref true in
  (* Binary encoding: a key holds hundreds of numbers and is (re)built
     on every force, so no decimal formatting (≈175 ns and a string
     allocation per number) in the loop.  Ints in [-127, 127] — almost
     all of them: offsets, extents, slots — are one byte; 0x80 escapes
     to a full little-endian word.  Floats are their bit pattern,
     exact by construction. *)
  let add_int v =
    if v >= -127 && v <= 127 then Buffer.add_char buf (Char.unsafe_chr (v land 0xff))
    else begin
      Buffer.add_char buf '\x80';
      Buffer.add_int64_le buf (Int64.of_int v)
    end
  in
  let add_float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
  let add_iv (iv : Shape.t) =
    Buffer.add_char buf '[';
    add_int (Array.length iv);
    Array.iter add_int iv
  in
  let fresh (s : Ir.source) =
    let i = !nbind in
    incr nbind;
    bindings := s :: !bindings;
    i
  in
  let bind_buffer (s : Ir.source) (a : Ndarray.t) =
    match
      List.find_map
        (fun (b, i) -> if b == a.Ndarray.data then Some i else None)
        !buf_slots
    with
    | Some i ->
        Buffer.add_char buf 'A';
        add_int i;
        Buffer.add_char buf ';'
    | None ->
        let i = fresh s in
        buf_slots := (a.Ndarray.data, i) :: !buf_slots;
        Buffer.add_char buf 'a';
        add_int i;
        add_iv (Ndarray.shape a);
        add_iv a.Ndarray.strides;
        Buffer.add_char buf ';'
  in
  (* Index maps are overwhelmingly pure offsets (stencil neighbours) or
     the identity; compress those shapes — they dominate key size. *)
  let all_one (a : Shape.t) =
    let rec go j = j < 0 || (a.(j) = 1 && go (j - 1)) in
    go (Array.length a - 1)
  in
  let all_zero (a : Shape.t) =
    let rec go j = j < 0 || (a.(j) = 0 && go (j - 1)) in
    go (Array.length a - 1)
  in
  let add_map (m : Ixmap.t) =
    if all_one m.Ixmap.scale && all_one m.Ixmap.div then
      if all_zero m.Ixmap.offset then Buffer.add_char buf 'I'
      else begin
        Buffer.add_char buf 'O';
        add_iv m.Ixmap.offset
      end
    else begin
      add_iv m.Ixmap.scale;
      add_iv m.Ixmap.offset;
      add_iv m.Ixmap.div
    end
  in
  let add_gen (g : Generator.t) =
    add_iv g.Generator.lb;
    add_iv g.Generator.ub;
    add_iv g.Generator.step;
    add_iv g.Generator.width
  in
  let rec key_source (s : Ir.source) =
    match s with
    | Ir.Arr a -> bind_buffer s a
    | Ir.Node n -> (
        match n.Ir.cache with
        | Some a ->
            (* Materialised: fusion sees only the buffer, exactly as
               for a leaf array — and it may alias one. *)
            bind_buffer s a
        | None -> (
            match List.find_map (fun (m, i) -> if m == n then Some i else None) !node_slots with
            | Some i ->
                Buffer.add_char buf 'N';
                add_int i;
                Buffer.add_char buf ';'
            | None ->
                let i = fresh s in
                node_slots := (n, i) :: !node_slots;
                if
                  n != root && not (fold && (not n.Ir.barrier) && (n.Ir.refs <= 1 || is_selection n))
                then begin
                  (* Fusion will materialise this node, never fold it:
                     its internals cannot reach the compiled plan.  Its
                     reference count still matters — the root's in-place
                     steal decision reads it. *)
                  Buffer.add_char buf 'm';
                  add_int i;
                  Buffer.add_string buf "{r";
                  add_int n.Ir.refs;
                  add_iv n.Ir.nshape;
                  Buffer.add_string buf "};"
                end
                else begin
                  Buffer.add_char buf 'n';
                  add_int i;
                  Buffer.add_string buf "{r";
                  add_int n.Ir.refs;
                  Buffer.add_string buf (if n.Ir.barrier then "Bt" else "Bf");
                  add_iv n.Ir.nshape;
                  (match n.Ir.spec with
                  | Ir.Genarray { default; parts } ->
                      Buffer.add_char buf 'G';
                      add_float default;
                      Buffer.add_char buf '(';
                      List.iter key_part parts;
                      Buffer.add_char buf ')'
                  | Ir.Modarray { base; parts } ->
                      Buffer.add_string buf "M(";
                      key_source base;
                      Buffer.add_char buf ':';
                      List.iter key_part parts;
                      Buffer.add_char buf ')');
                  Buffer.add_string buf "};"
                end))
  and key_part (p : Ir.part) =
    Buffer.add_char buf 'p';
    add_gen p.Ir.gen;
    Buffer.add_string buf "->";
    key_expr p.Ir.body
  and key_expr = function
    | Ir.Const c ->
        Buffer.add_char buf 'C';
        add_float c;
        Buffer.add_char buf ';'
    | Ir.Read (s, m) ->
        Buffer.add_char buf 'R';
        key_source s;
        add_map m
    | Ir.Neg e ->
        Buffer.add_string buf "Ng(";
        key_expr e;
        Buffer.add_char buf ')'
    | Ir.Sqrt e ->
        Buffer.add_string buf "Sq(";
        key_expr e;
        Buffer.add_char buf ')'
    | Ir.Absf e ->
        Buffer.add_string buf "Ab(";
        key_expr e;
        Buffer.add_char buf ')'
    | Ir.Add (a, b) -> key_bin "Ad" a b
    | Ir.Sub (a, b) -> key_bin "Sb" a b
    | Ir.Mul (a, b) -> key_bin "Ml" a b
    | Ir.Divf (a, b) -> key_bin "Dv" a b
    | Ir.Opaque _ -> ok := false
  and key_bin tag a b =
    Buffer.add_string buf tag;
    Buffer.add_char buf '(';
    key_expr a;
    Buffer.add_char buf ',';
    key_expr b;
    Buffer.add_char buf ')'
  in
  key_source (Ir.Node root);
  if not !ok then None
  else
    Some
      ( Buffer.contents buf,
        (let arr = Array.of_list (List.rev !bindings) in
         arr) )
