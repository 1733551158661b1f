(* The one global switch.  Everything recorded below is behind a single
   [Atomic.get] on this count, so fully-instrumented code paths cost one
   load and one branch when observation is off.  It counts the holders
   that want spans on — each open [with_enabled true], plus one for
   [set_enabled true] — so sessions on different domains that overlap
   never switch each other off. *)
let holders = Atomic.make 0
let base = Atomic.make false

let enabled () = Atomic.get holders > 0
let set_enabled b =
  if Atomic.exchange base b <> b then if b then Atomic.incr holders else Atomic.decr holders

let with_enabled b f =
  if not b then f ()
  else begin
    Atomic.incr holders;
    Fun.protect ~finally:(fun () -> Atomic.decr holders) f
  end

type event = {
  name : string;
  lane : int;
  depth : int;
  start_ns : int64;
  end_ns : int64;
  attrs : (string * string) list;
  scope : Scope.t option;
}

let duration_ns e = Int64.sub e.end_ns e.start_ns

let int_attr e k = Option.value (Option.bind (List.assoc_opt k e.attrs) int_of_string_opt) ~default:0

let capacity = 1 lsl 16

let dummy =
  { name = ""; lane = 0; depth = 0; start_ns = 0L; end_ns = 0L; attrs = []; scope = None }

(* One ring per domain, allocated lazily on the domain's first record
   and registered once under [rings_m].  The ring itself is
   single-writer (its domain); the registry mutex is only taken at
   creation and collection time, never per event. *)
type ring = {
  lane : int;
  slots : event array;
  mutable count : int;  (* total events ever written; wraps the ring *)
  mutable depth : int;  (* open spans on this domain *)
}

let rings : ring list ref = ref []
let rings_m = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        { lane = (Domain.self () :> int);
          slots = Array.make capacity dummy;
          count = 0;
          depth = 0;
        }
      in
      Mutex.lock rings_m;
      rings := r :: !rings;
      Mutex.unlock rings_m;
      r)

let get_ring () = Domain.DLS.get key

(* Events are stamped with the recording domain's current scope, so
   two engines' spans interleaved in time (or even on one lane, for
   engines sharing a pool) stay attributable. *)
let record r name attrs start_ns end_ns depth =
  let i = r.count land (capacity - 1) in
  r.slots.(i) <-
    { name; lane = r.lane; depth; start_ns; end_ns; attrs; scope = Scope.current () };
  r.count <- r.count + 1

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let with_ ?(attrs = []) ~name f =
  if Atomic.get holders = 0 then f ()
  else begin
    let r = get_ring () in
    r.depth <- r.depth + 1;
    let t0 = Monotonic_clock.now () in
    match f () with
    | v ->
        record r name attrs t0 (Monotonic_clock.now ()) r.depth;
        r.depth <- r.depth - 1;
        v
    | exception e ->
        record r name attrs t0 (Monotonic_clock.now ()) r.depth;
        r.depth <- r.depth - 1;
        raise e
  end

(* A timer is the span's start timestamp; [min_int] marks a timer that
   was started with observation off (all operations no-ops). *)
type timer = int64

let null = Int64.min_int
let active t = t <> Int64.min_int

let start () =
  if Atomic.get holders = 0 then null
  else begin
    let r = get_ring () in
    r.depth <- r.depth + 1;
    Monotonic_clock.now ()
  end

let stop ?(attrs = []) ~name t =
  if t <> Int64.min_int then begin
    let now = Monotonic_clock.now () in
    let r = get_ring () in
    record r name attrs t now r.depth;
    r.depth <- max 0 (r.depth - 1)
  end

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)

let ring_events r =
  let n = min r.count capacity in
  (* Oldest first: a wrapped ring starts at [count mod capacity]. *)
  let first = if r.count <= capacity then 0 else r.count land (capacity - 1) in
  List.init n (fun k -> r.slots.((first + k) land (capacity - 1)))

let snapshot_rings () =
  Mutex.lock rings_m;
  let rs = !rings in
  Mutex.unlock rings_m;
  rs

let events () =
  let evs = List.concat_map ring_events (snapshot_rings ()) in
  List.sort
    (fun a b ->
      let c = Int64.compare a.start_ns b.start_ns in
      if c <> 0 then c
      else
        let c = compare a.lane b.lane in
        if c <> 0 then c else compare a.depth b.depth)
    evs

let dropped () =
  List.fold_left (fun acc r -> acc + max 0 (r.count - capacity)) 0 (snapshot_rings ())

(* A ring overwrites in record order, and a lane records in end order,
   so its oldest surviving slot bounds the end of everything it lost. *)
let lost_since t =
  List.exists
    (fun r -> r.count > capacity && Int64.compare r.slots.(r.count land (capacity - 1)).end_ns t >= 0)
    (snapshot_rings ())

let clear () =
  List.iter
    (fun r ->
      r.count <- 0;
      r.depth <- 0)
    (snapshot_rings ())
