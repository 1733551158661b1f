(* Shared plumbing for the experiment binaries (fig11/fig12/fig13 and
   the ablations): class-list parsing, measured sequential runs, traced
   runs and table output. *)

open Mg_core
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

(* A count of at least 1 (threads, workers): anything else is a usage
   error, reported before any engine or pool is made. *)
let positive_int =
  let parse s =
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer >= 1" s))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

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

(* Run the whole experiment under span observation and append the
   profile report (per pipeline stage, per V-cycle level, per domain). *)
let with_profile enabled f =
  if not enabled then f ()
  else begin
    Mg_obs.Span.clear ();
    let r = Mg_obs.Span.with_enabled true f in
    Format.printf "@.%s%!" (Mg_obs.Profile_report.render (Mg_obs.Span.events ()));
    r
  end

let header () =
  Printf.printf "# %s\n# %s\n" (Mg_bench_util.Bench_util.Env.description ())
    (let t = Unix.gmtime (Unix.time ()) in
     Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
       t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec)

(* What a SAC time includes.  [Cold]: each repeat on a fresh engine
   derived from the current one's config — an empty plan cache, so
   every plan is compiled and the first iteration recorded, the work
   sac2c does before run time.  [Warm]: the current engine after one
   untimed solve, so every plan is cached and every iteration replays
   its tape.  F77 and C use no engine; their repeats are warm. *)
type start = Cold | Warm

let start_label = function Cold -> "cold" | Warm -> "warm"

(* Best-of-N measured sequential run. *)
let measure_seconds ?(start = Warm) ~repeats ~impl ~cls () =
  let run () =
    match start with
    | Warm -> Driver.run ~impl ~cls ()
    | Cold ->
        let module Engine = Mg_withloop.Engine in
        let e = Engine.create ~config:(Engine.config (Engine.current ())) () in
        Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> Driver.run ~engine:e ~impl ~cls ())
  in
  if start = Warm then ignore (run ());
  let best = ref Float.infinity and result = ref None in
  for _ = 1 to max 1 repeats do
    let r = run () in
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

(* One traced sequential run per implementation: its operations are
   the simulator input. *)
let traced_ops ~impl ~cls = (Driver.traced_run ~impl ~cls).Driver.ops

(* The figures' last line: a traced run fails rather than return
   truncated ops, and this says no span was lost anywhere else. *)
let print_spans_dropped () = Printf.printf "\n# spans dropped: %d\n" (Mg_obs.Span.dropped ())

let all_impls = [ Driver.F77; Driver.Sac; Driver.C ]

let pct a b = 100.0 *. ((a /. b) -. 1.0)
