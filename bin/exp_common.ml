(* Shared plumbing for the experiment binaries (fig11/fig12/fig13 and
   the ablations): class-list parsing, measured sequential runs, traced
   runs and table output. *)

open Mg_core
module Trace = Mg_smp.Trace
module Table = Mg_bench_util.Bench_util.Table

let classes_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let resolve name =
      match Classes.of_string (String.trim name) with
      | Some c -> Ok c
      | None -> Error (`Msg (Printf.sprintf "unknown class %S" name))
    in
    List.fold_left
      (fun acc name ->
        match (acc, resolve name) with
        | Ok cs, Ok c -> Ok (cs @ [ c ])
        | (Error _ as e), _ -> e
        | _, (Error _ as e) -> e)
      (Ok []) names
  in
  Cmdliner.Arg.conv
    ( parse,
      fun ppf cs ->
        Format.pp_print_string ppf (String.concat "," (List.map (fun (c : Classes.t) -> c.Classes.name) cs)) )

let sched_conv =
  let parse s =
    match Mg_smp.Sched_policy.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown scheduling policy %S (block|chunked[:M])" s))
  in
  Cmdliner.Arg.conv
    (parse, fun ppf p -> Format.pp_print_string ppf (Mg_smp.Sched_policy.to_string p))

let sched_arg =
  Cmdliner.Arg.(
    value
    & opt sched_conv Mg_smp.Sched_policy.default
    & info [ "sched" ] ~docv:"POLICY"
        ~doc:
          "Loop scheduling policy for parallel with-loop parts: block (one static chunk per \
           worker) or chunked:M (M dynamically claimed chunks per worker).")

(* --kernels: the kernel tier for bodies no fixed kernel recognises. *)
let kernels_arg ~doc =
  let tiers = List.map (fun t -> (Mg_withloop.Engine.tier_to_string t, t)) Mg_withloop.Engine.tiers in
  Cmdliner.Arg.(value & opt (some (enum tiers)) None & info [ "kernels" ] ~docv:"PATH" ~doc)

(* Run [f] on an engine derived with the tier's cfun/native flags;
   without a tier the current engine's flags stand. *)
let with_kernels tier f =
  match tier with
  | Some t -> Mg_withloop.Wl.with_config (Mg_withloop.Engine.with_tier t) f
  | None -> f ()

let profile_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record executor spans ({!Mg_obs}) during the measured runs and print the \
           span-based profile report after the table.")

(* Span recording has two gates: the process-wide switch and the
   engine's [observe] config.  Open both for the extent of [f]. *)
let observed f =
  Mg_obs.Span.with_enabled true (fun () ->
      Mg_withloop.Wl.with_config (fun c -> { c with Mg_withloop.Engine.observe = true }) f)

(* Run the whole experiment under span observation and append the
   profile report (per pipeline stage, per V-cycle level, per domain). *)
let with_profile enabled f =
  if not enabled then f ()
  else begin
    Mg_obs.Span.clear ();
    let r = observed f in
    Format.printf "@.%s%!" (Mg_obs.Profile_report.render (Mg_obs.Span.events ()));
    r
  end

let header () =
  Printf.printf "# %s\n# %s\n" (Mg_bench_util.Bench_util.Env.description ())
    (let t = Unix.gmtime (Unix.time ()) in
     Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
       t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec)

(* Best-of-N measured sequential run. *)
let measure_seconds ~repeats ~impl ~cls =
  let best = ref Float.infinity and result = ref None in
  for _ = 1 to max 1 repeats do
    let r = Driver.run ~impl ~cls () in
    if r.Driver.seconds < !best then best := r.Driver.seconds;
    result := Some r
  done;
  (!best, Option.get !result)

let impl_label = function
  | Driver.F77 -> "Fortran-77"
  | Driver.Sac -> "SAC"
  | Driver.C -> "C/OpenMP"
  | Driver.Periodic -> "SAC-periodic"

let status_string (r : Driver.result) = Format.asprintf "%a" Verify.pp_status r.Driver.status

let model_for = function
  | Driver.Sac | Driver.Periodic -> Mg_smp.Models.sac
  | Driver.F77 -> Mg_smp.Models.f77_autopar
  | Driver.C -> Mg_smp.Models.openmp

(* One traced sequential run per implementation (the simulator input). *)
let traced_events ~impl ~cls =
  let r = Driver.traced_run ~impl ~cls in
  (r.Driver.events, r)

let all_impls = [ Driver.F77; Driver.Sac; Driver.C ]

let pct a b = 100.0 *. ((a /. b) -. 1.0)
