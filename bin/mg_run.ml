(* mg_run: run one NAS-MG configuration and report timing and
   verification, exactly as the reference benchmark binaries do.

     mg_run --impl sac --class S --opt O3 --threads 1
            [--profile[=MODE,...]]

   Profile modes (comma-combinable):
     trace        per-operation Trace events with a per-tag summary
     report       the span-based profile report (per stage / level /
                  domain; the default for a bare --profile)
     chrome:PATH  write a Chrome trace_event JSON for chrome://tracing
                  or Perfetto, one lane per domain. *)

open Mg_core
module Trace = Mg_smp.Trace
module Span = Mg_obs.Span

type profile_mode = Ptrace | Preport | Pchrome of string

let parse_profile s =
  let mode m =
    match m with
    | "trace" -> Some Ptrace
    | "report" -> Some Preport
    | _ when String.length m > 7 && String.sub m 0 7 = "chrome:" ->
        Some (Pchrome (String.sub m 7 (String.length m - 7)))
    | _ -> None
  in
  let ms = List.map mode (String.split_on_char ',' s) in
  if List.for_all Option.is_some ms then Some (List.filter_map Fun.id ms) else None

let print_trace (events : Trace.event list) =
  Format.printf "@.Per-operation trace (%d events):@." (List.length events);
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : Trace.event) ->
      let key = Printf.sprintf "%s@%d" ev.Trace.tag ev.Trace.level_extent in
      let t, c = try Hashtbl.find tbl key with Not_found -> (0.0, 0) in
      Hashtbl.replace tbl key (t +. ev.Trace.seq_seconds, c + 1))
    events;
  let rows = Hashtbl.fold (fun tag (t, c) acc -> (tag, t, c) :: acc) tbl [] in
  let rows = List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows in
  List.iter (fun (tag, t, c) -> Format.printf "  %-20s %6d calls  %9.4f s@." tag c t) rows

let run impl cls opt threads sched tile backend kernels reuse pooling profile metrics_out flight
    custom_nx custom_nit =
  Mg_obs.Flight.install_sigusr1 ();
  let cls =
    match (custom_nx, custom_nit) with
    | Some nx, nit ->
        Classes.make_custom ~name:(Printf.sprintf "custom%d" nx) ~nx
          ~nit:(Option.value nit ~default:4)
    | None, _ -> cls
  in
  (* --tile both shapes and implies the tiled policy. *)
  let sched =
    match tile with
    | Some (planes, rows) -> Mg_smp.Sched_policy.Tiled { planes; rows }
    | None -> sched
  in
  let modes = Option.value profile ~default:[] in
  let trace = List.mem Ptrace modes in
  let observe = List.exists (function Preport | Pchrome _ -> true | Ptrace -> false) modes in
  if observe then Mg_withloop.Kernel.set_timing true;
  let drive () =
    Exp_common.with_kernels kernels (fun () ->
        Driver.run ~opt ~threads ~sched ~backend ?reuse ?pooling ~trace ~impl ~cls ())
  in
  let result =
    if observe then begin
      Span.clear ();
      Exp_common.observed drive
    end
    else drive ()
  in
  Format.printf "@[%a@]@." Driver.pp_result result;
  if trace then print_trace result.Driver.events;
  let spans = if observe then Span.events () else [] in
  List.iter
    (function
      | Ptrace -> ()
      | Preport ->
          Format.printf "@.%s" (Mg_obs.Profile_report.render ~wall_seconds:result.Driver.seconds spans)
      | Pchrome path ->
          Mg_obs.Chrome_trace.write_file path spans;
          Format.printf "@.Chrome trace: %s (%d spans, %d dropped); load in chrome://tracing or Perfetto.@."
            path (List.length spans) (Span.dropped ()))
    modes;
  Option.iter
    (fun path ->
      Mg_obs.Export.write_file path;
      Format.printf "@.Metrics: %s@." path)
    metrics_out;
  if flight then Format.printf "@.Flight recorder:@.%s" (Mg_obs.Flight.to_string ());
  if Verify.status_ok result.Driver.status then 0 else 1

open Cmdliner

let impl_conv =
  let parse s =
    match Driver.impl_of_string s with
    | Some i -> Ok i
    | None -> Error (`Msg (Printf.sprintf "unknown implementation %S (sac|f77|c|periodic)" s))
  in
  Arg.conv (parse, fun ppf i -> Format.pp_print_string ppf (Driver.impl_to_string i))

let class_conv =
  let parse s =
    match Classes.of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown class %S (tiny|mini|S|W|W128|A|B|C)" s))
  in
  Arg.conv (parse, fun ppf (c : Classes.t) -> Format.pp_print_string ppf c.Classes.name)

let opt_conv =
  let parse s =
    match Mg_withloop.Engine.opt_level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown optimisation level %S (O0..O3)" s))
  in
  Arg.conv (parse, fun ppf l -> Format.pp_print_string ppf (Mg_withloop.Engine.opt_level_to_string l))

let impl_arg =
  Arg.(value & opt impl_conv Driver.Sac & info [ "i"; "impl" ] ~docv:"IMPL" ~doc:"Implementation: sac, f77, c or periodic (the §7 border-free variant).")

let class_arg =
  Arg.(value & opt class_conv Classes.class_s & info [ "c"; "class" ] ~docv:"CLASS" ~doc:"Problem class (tiny, mini, S, W, W128, A, B, C).")

let opt_arg =
  Arg.(value & opt opt_conv Mg_withloop.Engine.O3 & info [ "O"; "opt" ] ~docv:"LEVEL" ~doc:"With-loop optimisation level (sac only): O0..O3.")

let threads_arg =
  Arg.(value & opt int 1 & info [ "t"; "threads" ] ~docv:"N" ~doc:"Worker domains for with-loop execution.")

let sched_conv =
  let parse s =
    match Mg_smp.Sched_policy.of_string s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown scheduling policy %S (block|chunked[:M]|tiled[:P,R])" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Mg_smp.Sched_policy.to_string p))

let sched_arg =
  Arg.(value & opt sched_conv Mg_smp.Sched_policy.default
       & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Loop scheduling policy for parallel with-loop parts: block (one static \
                 chunk per worker), chunked:M (M dynamically claimed chunks per worker) or \
                 tiled[:P,R] (cache-blocked P-plane by R-row tiles, claimed one at a time).")

let tile_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ p; r ] -> (
        match (int_of_string_opt (String.trim p), int_of_string_opt (String.trim r)) with
        | Some planes, Some rows when planes >= 1 && rows >= 1 -> Ok (planes, rows)
        | _ -> Error (`Msg (Printf.sprintf "bad tile shape %S (expected P,R with P,R >= 1)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad tile shape %S (expected P,R)" s))
  in
  Arg.conv (parse, fun ppf (p, r) -> Format.fprintf ppf "%d,%d" p r)

let tile_arg =
  Arg.(value & opt (some tile_conv) None
       & info [ "tile" ] ~docv:"P,R"
           ~doc:"Tile shape for cache-blocked sweeps: P planes by R rows per tile.  Implies \
                 $(b,--sched=tiled).")

let backend_conv =
  let parse s =
    match Mg_withloop.Backend.by_name s with
    | Some b -> Ok b
    | None -> Error (`Msg (Printf.sprintf "unknown backend %S (pool|smp_sim)" s))
  in
  Arg.conv (parse, fun ppf b -> Format.pp_print_string ppf (Mg_withloop.Backend.name b))

let backend_arg =
  Arg.(value & opt backend_conv Mg_withloop.Backend.default
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Piece-scheduling backend: pool (real worker domains) or smp_sim (the same \
                 split run sequentially with per-piece trace events).")

let kernels_arg =
  Exp_common.kernels_arg
    ~doc:"Kernel path for bodies no fixed kernel recognises: $(b,generic) \
          (interpreted cluster nest), $(b,cfun) (staged compiled closures, the \
          O2+ default) or $(b,native) (AOT: emit C, compile to a disk-cached \
          shared object, dlopen; degrades to cfun when the toolchain refuses)."

let reuse_arg =
  Arg.(value
       & opt (some (enum [ ("on", true); ("off", false) ])) None
       & info [ "reuse" ] ~docv:"on|off"
           ~doc:"Buffer-reuse (in-place update) analysis for fully covered with-loop \
                 sweeps: alias the output with a dead operand's buffer when every read \
                 of it is an identity read.  $(b,on) at O2+ by default; $(b,off) \
                 allocates every result from the memory pool.")

let pooling_arg =
  Arg.(value
       & opt (some (enum [ ("on", true); ("off", false) ])) None
       & info [ "pooling" ] ~docv:"on|off"
           ~doc:"Per-domain arena pooling of intermediate buffers: recycle dead with-loop \
                 results through domain-local typed arenas instead of allocating fresh \
                 Bigarrays.  $(b,on) by default (also via $(b,MG_POOLING)); $(b,off) \
                 degrades every allocation to a fresh uninitialised buffer.  Results are \
                 bitwise identical either way.")

let profile_conv =
  let parse s =
    match parse_profile s with
    | Some ms -> Ok ms
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown profile mode in %S (trace|report|chrome:PATH, comma-separated)" s))
  in
  let print ppf ms =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map
            (function Ptrace -> "trace" | Preport -> "report" | Pchrome p -> "chrome:" ^ p)
            ms))
  in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(value
       & opt ~vopt:(Some [ Preport ]) (some profile_conv) None
       & info [ "profile" ] ~docv:"MODE"
           ~doc:"Profile the run.  $(docv) is a comma-separated subset of: $(b,trace) (the \
                 per-operation Trace events), $(b,report) (span-based per-stage / per-level / \
                 per-domain report; the default for a bare $(b,--profile)), and \
                 $(b,chrome:PATH) (write a Chrome trace_event JSON loadable in \
                 chrome://tracing or Perfetto).")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"PATH"
           ~doc:"Write the complete metrics registry to $(docv) after the run: JSON-lines                  when the path ends in $(b,.jsonl), OpenMetrics exposition text otherwise.")

let flight_arg =
  Arg.(value & flag
       & info [ "flight" ]
           ~doc:"Print the flight recorder (the bounded ring of per-solve summary records)                  after the run.  The same dump is available at any time via $(b,SIGUSR1).")

let nx_arg =
  Arg.(value & opt (some int) None & info [ "nx" ] ~docv:"N" ~doc:"Custom grid extent (power of two; overrides --class).")

let nit_arg =
  Arg.(value & opt (some int) None & info [ "nit" ] ~docv:"N" ~doc:"Custom iteration count (with --nx).")

let cmd =
  let doc = "run the NAS benchmark MG (SAC-style, Fortran-77-style or C-style)" in
  Cmd.v
    (Cmd.info "mg_run" ~doc)
    Term.(const run $ impl_arg $ class_arg $ opt_arg $ threads_arg $ sched_arg $ tile_arg
          $ backend_arg $ kernels_arg $ reuse_arg $ pooling_arg $ profile_arg $ metrics_out_arg
          $ flight_arg $ nx_arg $ nit_arg)

let () = exit (Cmd.eval' cmd)
