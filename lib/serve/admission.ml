(* The pure admission core: a bounded multi-tenant queue with
   deficit-weighted round-robin dispatch.  No domains, no mutexes —
   Serve drives this under its own lock; the qcheck shadow-model
   suite drives it directly.  Every request moves along the linear
   protocol

     submitted → (rejected | queued) → (cancelled | dispatched) → completed

   and each function below implements exactly one legal transition;
   anything else raises. *)

type reject = Queue_full | Draining

let reject_to_string = function Queue_full -> "queue_full" | Draining -> "draining"

type stats = {
  submitted : int;
  accepted : int;
  rejected : int;
  cancelled : int;
  dispatched : int;
  completed : int;
  queued : int;
  in_flight : int;
}

type state = Queued | Dispatched | Completed | Cancelled

type 'a entry = { id : int; tenant : string; payload : 'a; mutable state : state }

(* Cancelled entries stay in their tenant FIFO until dispatch skips
   over them (O(1) cancel, lazy removal); [live] counts only Queued
   entries, so capacity and fairness never see ghosts. *)
type 'a tenant_q = {
  mutable weight : int;
  mutable credit : int;  (* dispatch slots left in the current rotation *)
  fifo : 'a entry Queue.t;
  mutable live : int;
}

type 'a t = {
  cap : int;
  mutable draining_ : bool;
  tenants : (string, 'a tenant_q) Hashtbl.t;
  mutable rotation : 'a tenant_q list;  (* first-appearance order *)
  entries : (int, 'a entry) Hashtbl.t;
  mutable next_id : int;
  mutable n_submitted : int;
  mutable n_accepted : int;
  mutable n_rejected : int;
  mutable n_cancelled : int;
  mutable n_dispatched : int;
  mutable n_completed : int;
  mutable n_queued : int;
  mutable n_in_flight : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1";
  { cap = capacity;
    draining_ = false;
    tenants = Hashtbl.create 8;
    rotation = [];
    entries = Hashtbl.create 64;
    next_id = 0;
    n_submitted = 0;
    n_accepted = 0;
    n_rejected = 0;
    n_cancelled = 0;
    n_dispatched = 0;
    n_completed = 0;
    n_queued = 0;
    n_in_flight = 0;
  }

let tenant_q t name =
  match Hashtbl.find_opt t.tenants name with
  | Some q -> q
  | None ->
      let q = { weight = 1; credit = 1; fifo = Queue.create (); live = 0 } in
      Hashtbl.add t.tenants name q;
      t.rotation <- t.rotation @ [ q ];
      q

let submit t ~tenant ?(weight = 1) payload =
  if weight < 1 then invalid_arg "Admission.submit: weight must be >= 1";
  t.n_submitted <- t.n_submitted + 1;
  if t.draining_ then begin
    t.n_rejected <- t.n_rejected + 1;
    Error Draining
  end
  else if t.n_queued >= t.cap then begin
    t.n_rejected <- t.n_rejected + 1;
    Error Queue_full
  end
  else begin
    let q = tenant_q t tenant in
    q.weight <- weight;
    let id = t.next_id in
    t.next_id <- id + 1;
    let e = { id; tenant; payload; state = Queued } in
    Hashtbl.add t.entries id e;
    Queue.add e q.fifo;
    q.live <- q.live + 1;
    t.n_accepted <- t.n_accepted + 1;
    t.n_queued <- t.n_queued + 1;
    Ok id
  end

let cancel t id =
  match Hashtbl.find_opt t.entries id with
  | Some e when e.state = Queued ->
      e.state <- Cancelled;
      (* The FIFO entry stays; dispatch discards it in passing. *)
      (match Hashtbl.find_opt t.tenants e.tenant with
      | Some q -> q.live <- q.live - 1
      | None -> ());
      t.n_cancelled <- t.n_cancelled + 1;
      t.n_queued <- t.n_queued - 1;
      true
  | _ -> false

(* Pop [q]'s next live entry, discarding cancelled ghosts. *)
let rec pop_live q =
  match Queue.take_opt q.fifo with
  | None -> None
  | Some e -> if e.state = Queued then Some e else pop_live q

(* Deficit-weighted round-robin over the rotation list: take from the
   first tenant that still has credit and work; a tenant without work
   passes its turn free of charge, a tenant out of credit waits for
   the refill that happens once every tenant with work is exhausted.
   The rotation order is stable (first appearance), so the dispatch
   sequence under saturation is deterministic — e.g. weights a:2,b:1
   yield a,a,b,a,a,b,... *)
let dispatch t =
  if t.n_queued = 0 then None
  else begin
    let take q =
      match pop_live q with
      | None -> None
      | Some e ->
          q.live <- q.live - 1;
          q.credit <- q.credit - 1;
          e.state <- Dispatched;
          t.n_queued <- t.n_queued - 1;
          t.n_dispatched <- t.n_dispatched + 1;
          t.n_in_flight <- t.n_in_flight + 1;
          Some (e.id, e.tenant, e.payload)
    in
    let eligible q = q.live > 0 && q.credit > 0 in
    let rec first_eligible = function
      | [] -> None
      | q :: rest -> if eligible q then take q else first_eligible rest
    in
    match first_eligible t.rotation with
    | Some r -> Some r
    | None ->
        (* Work exists ([n_queued > 0]) but every tenant holding it is
           out of credit: start a new rotation. *)
        List.iter (fun q -> q.credit <- q.weight) t.rotation;
        first_eligible t.rotation
  end

let complete t id =
  match Hashtbl.find_opt t.entries id with
  | Some e when e.state = Dispatched ->
      e.state <- Completed;
      t.n_in_flight <- t.n_in_flight - 1;
      t.n_completed <- t.n_completed + 1
  | Some e ->
      invalid_arg
        (Printf.sprintf "Admission.complete: request %d is %s, not in flight" id
           (match e.state with
           | Queued -> "still queued"
           | Completed -> "already completed"
           | Cancelled -> "cancelled"
           | Dispatched -> assert false))
  | None -> invalid_arg (Printf.sprintf "Admission.complete: unknown request %d" id)

let drain t = t.draining_ <- true
let draining t = t.draining_
let capacity t = t.cap

let stats t =
  { submitted = t.n_submitted;
    accepted = t.n_accepted;
    rejected = t.n_rejected;
    cancelled = t.n_cancelled;
    dispatched = t.n_dispatched;
    completed = t.n_completed;
    queued = t.n_queued;
    in_flight = t.n_in_flight;
  }

let queued_ids t =
  Hashtbl.fold (fun id e acc -> if e.state = Queued then id :: acc else acc) t.entries []
