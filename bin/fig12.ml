(* Figure 12 — speedups relative to each implementation's own
   sequential time, P = 1..10 (paper §5).

   The machine is single-core, so parallel execution is simulated: one
   measured sequential trace per implementation (one event per array
   operation) is replayed through the corresponding machine model of
   Mg_smp.Models — see DESIGN.md §2 for the substitution.  Paper
   end-points at P = 10:

     class W: SAC 5.3, Fortran-77 autopar 2.8, OpenMP 8.0
     class A: SAC 7.6, Fortran-77 autopar 4.0, OpenMP 9.0  *)

open Mg_core
module Table = Mg_bench_util.Bench_util.Table
module Smp_sim = Mg_smp.Smp_sim

let paper_p10 (cls : Classes.t) impl =
  match (cls.Classes.name, impl) with
  | "W", Driver.Sac -> Some 5.3
  | "W", Driver.F77 -> Some 2.8
  | "W", Driver.C -> Some 8.0
  | "A", Driver.Sac -> Some 7.6
  | "A", Driver.F77 -> Some 4.0
  | "A", Driver.C -> Some 9.0
  | _ -> None

let run classes max_procs sched profile csv =
  Exp_common.with_profile profile @@ fun () ->
  Mg_withloop.Wl.with_config (fun c -> { c with Mg_withloop.Engine.sched }) @@ fun () ->
  Exp_common.header ();
  Printf.printf
    "# Figure 12: simulated speedups vs own sequential time (trace-driven SMP model)\n";
  Printf.printf "# with-loop scheduling policy: %s\n\n" (Mg_smp.Sched_policy.to_string sched);
  let all_rows = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      List.iter
        (fun impl ->
          let events, _ = Exp_common.traced_events ~impl ~cls in
          let model = Exp_common.model_for impl in
          let series = Smp_sim.speedup_series model ~max_procs events in
          let frac = Smp_sim.parallel_fraction model events in
          let cells = Array.to_list (Array.map (fun (_, s) -> Printf.sprintf "%.2f" s) series) in
          let paper =
            match paper_p10 cls impl with Some v -> Printf.sprintf "%.1f" v | None -> "-"
          in
          all_rows :=
            ([ cls.Classes.name; Exp_common.impl_label impl ]
            @ cells
            @ [ paper; Printf.sprintf "%.0f%%" (100.0 *. frac) ])
            :: !all_rows)
        Exp_common.all_impls)
    classes;
  let rows = List.rev !all_rows in
  let pcols = List.init max_procs (fun i -> Printf.sprintf "P=%d" (i + 1)) in
  let header = [ "class"; "system" ] @ pcols @ [ "paper P=10"; "par.frac" ] in
  Table.render Format.std_formatter ~header
    ~align:(Table.L :: Table.L :: List.map (fun _ -> Table.R) pcols @ [ Table.R; Table.R ])
    rows;
  (match csv with
  | Some path ->
      let oc = open_out path in
      Table.render_csv oc ~header rows;
      close_out oc;
      Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  0

open Cmdliner

let classes_arg =
  Arg.(value
      & opt Exp_common.classes_conv [ Classes.class_s; Classes.class_w ]
      & info [ "classes" ] ~docv:"C1,C2" ~doc:"Size classes (default S,W; the paper uses W,A).")

let procs_arg =
  Arg.(value & opt int 10 & info [ "procs" ] ~docv:"P" ~doc:"Maximum simulated processor count.")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV.")

let cmd =
  Cmd.v
    (Cmd.info "fig12" ~doc:"reproduce Fig. 12: speedups vs own sequential time (simulated SMP)")
    Term.(const run $ classes_arg $ procs_arg $ Exp_common.sched_arg $ Exp_common.profile_arg $ csv_arg)

let () = exit (Cmd.eval' cmd)
