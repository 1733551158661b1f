type job = {
  body : int -> int -> unit;
  ranges : (int * int) array;
  next : int Atomic.t;
  failed : bool Atomic.t;  (* set on first exception: stop claiming *)
  mutable running : int;  (* participants still working, incl. caller *)
  mutable exn : exn option;
  scope : Mg_obs.Scope.t option;
      (* the submitting domain's solve scope, mirrored onto every
         participant so worker-side spans and metric shards attribute
         to the right solve *)
}

type t = {
  n : int;
  mutable domains : unit Domain.t list;
  m : Mutex.t;
  cv_work : Condition.t;
  cv_done : Condition.t;
  mutable job : job option;
  mutable generation : int;
  mutable stop : bool;
}

let size t = t.n

let run_chunks t job =
  Mg_obs.Scope.with_opt job.scope @@ fun () ->
  let nranges = Array.length job.ranges in
  let continue = ref true in
  while !continue && not (Atomic.get job.failed) do
    let k = Atomic.fetch_and_add job.next 1 in
    if k >= nranges then continue := false
    else begin
      let lo, hi = job.ranges.(k) in
      let span = Mg_obs.Span.start () in
      (try job.body lo hi
       with e ->
         Atomic.set job.failed true;
         Mutex.lock t.m;
         if job.exn = None then job.exn <- Some e;
         Mutex.unlock t.m);
      if Mg_obs.Span.active span then
        Mg_obs.Span.stop
          ~attrs:[ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
          ~name:"pool:chunk" span
    end
  done

let finish_participation t job =
  Mutex.lock t.m;
  job.running <- job.running - 1;
  if job.running = 0 then Condition.broadcast t.cv_done;
  Mutex.unlock t.m

(* Domain lifecycle hooks: libraries with domain-local state (the
   with-loop arena allocator) register these once at load time so
   every worker sets its state up at spawn — not lazily mid-kernel —
   and tears it down before the domain exits. *)
let hook_start : (unit -> unit) Atomic.t = Atomic.make (fun () -> ())
let hook_exit : (unit -> unit) Atomic.t = Atomic.make (fun () -> ())

let set_domain_hooks ~on_start ~on_exit =
  Atomic.set hook_start on_start;
  Atomic.set hook_exit on_exit

let worker t () =
  (Atomic.get hook_start) ();
  let last_gen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while (not t.stop) && t.generation = !last_gen do
      Condition.wait t.cv_work t.m
    done;
    if t.stop then begin
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      last_gen := t.generation;
      let job = t.job in
      Mutex.unlock t.m;
      match job with
      | None -> ()
      | Some job ->
          run_chunks t job;
          finish_participation t job
    end
  done;
  (Atomic.get hook_exit) ()

let create n =
  if n < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let t =
    { n;
      domains = [];
      m = Mutex.create ();
      cv_work = Condition.create ();
      cv_done = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
    }
  in
  t.domains <- List.init (n - 1) (fun _ -> Domain.spawn (worker t));
  t

let sequential = create 1

(* One near-equal contiguous block per domain: the paper's static
   schedule for its perfectly regular with-loops. *)
let blocks ~n ~lo ~hi =
  let len = hi - lo in
  let n = min n len in
  Array.init n (fun k -> (lo + (len * k / n), lo + (len * (k + 1) / n)))

let parallel_for t ~lo ~hi body =
  if hi <= lo then ()
  else if t.n = 1 || hi - lo = 1 then body lo hi
  else begin
    let job =
      { body;
        ranges = blocks ~n:t.n ~lo ~hi;
        next = Atomic.make 0;
        failed = Atomic.make false;
        running = 1 + List.length t.domains;
        exn = None;
        scope = Mg_obs.Scope.current ();
      }
    in
    Mutex.lock t.m;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.cv_work;
    Mutex.unlock t.m;
    run_chunks t job;
    finish_participation t job;
    Mutex.lock t.m;
    while job.running > 0 do
      Condition.wait t.cv_done t.m
    done;
    t.job <- None;
    Mutex.unlock t.m;
    match job.exn with None -> () | Some e -> raise e
  end

let shutdown t =
  if t.domains <> [] then begin
    Mutex.lock t.m;
    t.stop <- true;
    Condition.broadcast t.cv_work;
    Mutex.unlock t.m;
    List.iter Domain.join t.domains;
    t.domains <- []
  end
