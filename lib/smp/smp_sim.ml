module Span = Mg_obs.Span
module Scope = Mg_obs.Scope

type op = { tag : string; elements : int; seconds : float; bytes : int; extent : int }

(* One solve's operations: its spans that carry an extent, each timed
   by its self time net of nested operations. *)
let ops_of scope spans =
  let id = Scope.solve_id scope in
  let mine (e : Span.event) =
    match e.Span.scope with Some s -> Scope.solve_id s = id | None -> false
  in
  List.map
    (fun ((e : Span.event), self) ->
      { tag = Option.value (List.assoc_opt "tag" e.Span.attrs) ~default:e.Span.name;
        elements = Span.int_attr e "elements";
        seconds = Int64.to_float self *. 1e-9;
        bytes = Span.int_attr e "bytes";
        extent = Span.int_attr e "extent";
      })
    (Mg_obs.Profile_report.op_self_times (List.filter mine spans))

let traced scope f =
  let t0 = Clock.now_ns () in
  let r = Span.with_enabled true (fun () -> Scope.with_scope scope f) in
  if Span.lost_since t0 then
    failwith "Smp_sim.traced: a span ring wrapped during the run; its operations are incomplete";
  (ops_of scope (Span.events ()), r)

let total_seconds ops = List.fold_left (fun acc op -> acc +. op.seconds) 0.0 ops

type machine = {
  name : string;
  can_parallelize : op -> bool;
  min_par_elements : int;
  spawn_seconds : float;
  chunk_seconds : float;
  imbalance : float;
  mem_per_alloc_seconds : float;
}

let parallel m op = m.can_parallelize op && op.elements >= m.min_par_elements

let predict_op m ~procs op =
  let mem = if op.bytes > 0 then m.mem_per_alloc_seconds else 0.0 in
  (* The memory-manager share of the measured time cannot exceed the
     measurement itself. *)
  let mem = Float.min mem (0.9 *. op.seconds) in
  let work = op.seconds -. mem in
  if procs > 1 && parallel m op then begin
    let p = float_of_int procs in
    let eff = 1.0 /. (1.0 +. (m.imbalance *. (p -. 1.0))) in
    (work /. (p *. eff)) +. m.spawn_seconds +. (m.chunk_seconds *. p) +. mem
  end
  else op.seconds

let predict m ~procs ops = List.fold_left (fun acc op -> acc +. predict_op m ~procs op) 0.0 ops

let speedup_series m ~max_procs ops =
  let t1 = predict m ~procs:1 ops in
  Array.init max_procs (fun i ->
      let p = i + 1 in
      (p, t1 /. predict m ~procs:p ops))

let parallel_fraction m ops =
  let total = total_seconds ops in
  if total = 0.0 then 0.0
  else total_seconds (List.filter (parallel m) ops) /. total
