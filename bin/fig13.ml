(* Figure 13 — speedups relative to the sequential Fortran-77 time
   (paper §5): Fig. 12's parallel times renormalised by the fastest
   sequential implementation, so that absolute performance and
   scalability combine.  The paper's headline observations:

     - SAC overtakes auto-parallelised Fortran-77 from 4 processors;
     - for class A, SAC stays ahead of OpenMP over the whole range.  *)

open Mg_core
module Table = Mg_bench_util.Bench_util.Table
module Smp_sim = Mg_smp.Smp_sim

let run classes max_procs sched profile csv =
  Exp_common.with_profile profile @@ fun () ->
  Mg_withloop.Wl.with_config (fun c -> { c with Mg_withloop.Engine.sched }) @@ fun () ->
  Exp_common.header ();
  Printf.printf "# Figure 13: simulated speedups vs sequential Fortran-77 time\n";
  Printf.printf "# with-loop scheduling policy: %s\n\n" (Mg_smp.Sched_policy.to_string sched);
  let all_rows = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      (* Reference: the F77 trace replayed at P=1 (its sequential time). *)
      let traces = List.map (fun impl -> (impl, fst (Exp_common.traced_events ~impl ~cls))) Exp_common.all_impls in
      let f77_seq =
        let evs = List.assoc Driver.F77 traces in
        Smp_sim.predict (Exp_common.model_for Driver.F77) ~procs:1 evs
      in
      let crossovers = ref [] in
      let series_for impl =
        let evs = List.assoc impl traces in
        let model = Exp_common.model_for impl in
        Array.init max_procs (fun i -> f77_seq /. Smp_sim.predict model ~procs:(i + 1) evs)
      in
      let sac = series_for Driver.Sac and f77 = series_for Driver.F77 and c = series_for Driver.C in
      Array.iteri
        (fun i s -> if s > f77.(i) && not (List.mem_assoc `Sac_f77 !crossovers) then
            crossovers := (`Sac_f77, i + 1) :: !crossovers)
        sac;
      List.iter
        (fun (impl, series) ->
          all_rows :=
            ([ cls.Classes.name; Exp_common.impl_label impl ]
            @ Array.to_list (Array.map (fun s -> Printf.sprintf "%.2f" s) series))
            :: !all_rows)
        [ (Driver.F77, f77); (Driver.Sac, sac); (Driver.C, c) ];
      (match List.assoc_opt `Sac_f77 !crossovers with
      | Some p ->
          Printf.printf "class %s: SAC overtakes auto-parallelised F77 at P=%d (paper: P=4)\n"
            cls.Classes.name p
      | None ->
          Printf.printf "class %s: SAC does not overtake auto-parallelised F77 up to P=%d\n"
            cls.Classes.name max_procs);
      let sac_beats_omp = Array.for_all2 (fun a b -> a >= b) sac c in
      Printf.printf "class %s: SAC ahead of OpenMP over the whole range: %b (paper: true for A)\n\n"
        cls.Classes.name sac_beats_omp)
    classes;
  let rows = List.rev !all_rows in
  let pcols = List.init max_procs (fun i -> Printf.sprintf "P=%d" (i + 1)) in
  let header = [ "class"; "system" ] @ pcols in
  Table.render Format.std_formatter ~header
    ~align:(Table.L :: Table.L :: List.map (fun _ -> Table.R) pcols)
    rows;
  (match csv with
  | Some path ->
      let oc = open_out path in
      Table.render_csv oc ~header rows;
      close_out oc;
      Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  (* Second view: our simulated scaling curves combined with the
     PAPER's sequential ratios (Fig. 11: W = 1 : 1.296 : 1.48,
     A = 1 : 1.23 : 1.51 for F77 : SAC : C).  This isolates the
     crossover claims from this repository's sequential-executor gap
     (see EXPERIMENTS.md). *)
  Printf.printf "\n# Same scaling curves normalised by the paper's Fig. 11 sequential ratios\n\n";
  let rows2 = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      let ratio impl =
        match (cls.Classes.name, impl) with
        | "A", Driver.Sac -> 1.23
        | "A", Driver.C -> 1.51
        | _, Driver.Sac -> 1.296
        | _, Driver.C -> 1.48
        | _, Driver.F77 -> 1.0
      in
      let sac_s = ref [||] and f77_s = ref [||] in
      List.iter
        (fun impl ->
          let events, _ = Exp_common.traced_events ~impl ~cls in
          let model = Exp_common.model_for impl in
          let series = Smp_sim.speedup_series model ~max_procs events in
          let series = Array.map (fun (_, s) -> s /. ratio impl) series in
          if impl = Driver.Sac then sac_s := series;
          if impl = Driver.F77 then f77_s := series;
          rows2 :=
            ([ cls.Classes.name; Exp_common.impl_label impl ]
            @ Array.to_list (Array.map (fun s -> Printf.sprintf "%.2f" s) series))
            :: !rows2)
        Exp_common.all_impls;
      let cross = ref None in
      Array.iteri
        (fun i s -> if !cross = None && s > !f77_s.(i) then cross := Some (i + 1))
        !sac_s;
      match !cross with
      | Some p ->
          Printf.printf "class %s (paper ratios): SAC overtakes autopar F77 at P=%d (paper: 4)\n"
            cls.Classes.name p
      | None ->
          Printf.printf "class %s (paper ratios): no SAC/F77 crossover up to P=%d\n"
            cls.Classes.name max_procs)
    classes;
  Printf.printf "\n";
  Table.render Format.std_formatter ~header
    ~align:(Table.L :: Table.L :: List.map (fun _ -> Table.R) pcols)
    (List.rev !rows2);
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
    (Cmd.info "fig13" ~doc:"reproduce Fig. 13: speedups vs sequential Fortran-77 (simulated SMP)")
    Term.(const run $ classes_arg $ procs_arg $ Exp_common.sched_arg $ Exp_common.profile_arg $ csv_arg)

let () = exit (Cmd.eval' cmd)
