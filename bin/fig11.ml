(* Figure 11 — single-processor performance (paper §5).

   Runs all three implementations sequentially for each requested size
   class and prints absolute runtimes plus the two ratios the paper
   reports: by how much Fortran-77 outperforms SAC, and by how much SAC
   outperforms the C port.  SAC gets two rows (Exp_common.start): a
   cold one, a fresh engine per repeat, which compiles every plan and
   records the first iteration as sac2c compiles before run time, and
   a warm one, whose solves replay every iteration.  The ratios use the
   warm row, the program's run time.  Paper values for reference:

     class W: F77 beats SAC by 29.6 %, SAC beats C by 14.2 %
     class A: F77 beats SAC by 23.0 %, SAC beats C by 22.5 %  *)

open Mg_core
module Table = Mg_bench_util.Bench_util.Table

let run classes repeats csv kernels =
  Exp_common.header ();
  Printf.printf "# Figure 11: single-processor runtimes (best of %d)\n" repeats;
  Printf.printf
    "# SAC (cold): a fresh engine per solve (plans compiled, first iteration recorded);\n\
     # SAC (warm): one engine after an untimed solve (every iteration replayed).\n\
     # The ratios below use the warm row.\n\n";
  (* The SAC leg's kernel tier for unrecognised bodies; F77/C are
     unaffected. *)
  Exp_common.with_kernels kernels @@ fun () ->
  let rows = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      let results =
        List.concat_map
          (fun impl ->
            let starts =
              if impl = Driver.Sac then [ Exp_common.Cold; Exp_common.Warm ] else [ Exp_common.Warm ]
            in
            List.map
              (fun start ->
                let seconds, r = Exp_common.measure_seconds ~start ~repeats ~impl ~cls () in
                (impl, start, seconds, r))
              starts)
          Exp_common.all_impls
      in
      let time_of i =
        let _, _, s, _ =
          List.find (fun (impl, start, _, _) -> impl = i && start = Exp_common.Warm) results
        in
        s
      in
      List.iter
        (fun (impl, start, seconds, r) ->
          rows :=
            [ cls.Classes.name;
              (if impl = Driver.Sac then
                 Printf.sprintf "%s (%s)" (Exp_common.impl_label impl) (Exp_common.start_label start)
               else Exp_common.impl_label impl);
              Printf.sprintf "%.3f" seconds;
              Printf.sprintf "%.2f" (seconds /. time_of Driver.F77);
              Exp_common.status_string r;
            ]
            :: !rows)
        results;
      let f77 = time_of Driver.F77 and sac = time_of Driver.Sac and c = time_of Driver.C in
      Printf.printf "class %s: F77 outperforms SAC by %.1f%% (paper W: 29.6%%, A: 23.0%%); "
        cls.Classes.name (Exp_common.pct sac f77);
      Printf.printf "SAC vs C: %+.1f%% (positive = SAC faster; paper W: 14.2%%, A: 22.5%%)\n"
        (Exp_common.pct c sac))
    classes;
  Printf.printf "\n";
  let rows = List.rev !rows in
  Table.render Format.std_formatter
    ~header:[ "class"; "implementation"; "seconds"; "vs F77"; "verification" ]
    ~align:[ Table.L; Table.L; Table.R; Table.R; Table.L ] rows;
  (match csv with
  | Some path ->
      let oc = open_out path in
      Table.render_csv oc ~header:[ "class"; "implementation"; "seconds"; "vs_f77" ]
        (List.map (fun r -> List.filteri (fun i _ -> i < 4) r) rows);
      close_out oc;
      Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  0

open Cmdliner

let classes_arg =
  Arg.(value
      & opt Exp_common.classes_conv [ Classes.class_s; Classes.class_w ]
      & info [ "classes" ] ~docv:"C1,C2" ~doc:"Size classes to run (default S,W; the paper uses W,A).")

let repeats_arg =
  Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc:"Repetitions; the best time is kept.")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV.")

let kernels_arg =
  Exp_common.kernels_arg
    ~doc:"Kernel path for the SAC implementation's unrecognised bodies: \
          $(b,generic), $(b,cfun) (the O2+ default) or $(b,native) (AOT \
          shared-object kernels)."

let cmd =
  Cmd.v
    (Cmd.info "fig11" ~doc:"reproduce Fig. 11: single-processor performance")
    Term.(const run $ classes_arg $ repeats_arg $ csv_arg $ kernels_arg)

let () = exit (Cmd.eval' cmd)
