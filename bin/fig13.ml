(* Figure 13 — speedups relative to the sequential Fortran-77 time
   (paper §5): Fig. 12's parallel times renormalised by the fastest
   sequential implementation, so that absolute performance and
   scalability combine.  The paper's headline observations:

     - SAC overtakes auto-parallelised Fortran-77 from 4 processors;
     - for class A, SAC stays ahead of OpenMP over the whole range.  *)

open Mg_core
module Table = Mg_bench_util.Bench_util.Table
module Smp_sim = Mg_smp.Smp_sim

(* Traced solves per system and class.  Each round traces F77, SAC and
   C back to back, so a change in the host's speed between rounds moves
   every system alike; each system's prediction is the median over the
   rounds. *)
let rounds = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let run classes max_procs profile csv =
  Exp_common.with_profile profile @@ fun () ->
  Exp_common.header ();
  Printf.printf "# Figure 13: simulated speedups vs sequential Fortran-77 time\n";
  Printf.printf "# each row: medians of %d interleaved traced rounds per system\n\n" rounds;
  let all_rows = ref [] and own = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      (* [predicted.(r)]: per system, its round-[r] time at P = 1..max_procs. *)
      let predicted =
        Array.init rounds (fun _ ->
            List.map
              (fun impl ->
                let ops = Exp_common.traced_ops ~impl ~cls in
                let model = Exp_common.model_for impl in
                (impl, Array.init max_procs (fun i -> Smp_sim.predict model ~procs:(i + 1) ops)))
              Exp_common.all_impls)
      in
      let times impl p = Array.to_list (Array.map (fun r -> (List.assoc impl r).(p)) predicted) in
      let medians impl = Array.init max_procs (fun p -> median (times impl p)) in
      (* Reference: the F77 run replayed at P=1 (its sequential time). *)
      let f77_seq = median (times Driver.F77 0) in
      let series_for impl = Array.map (fun t -> f77_seq /. t) (medians impl) in
      let sac = series_for Driver.Sac and f77 = series_for Driver.F77 and c = series_for Driver.C in
      own := (cls, List.map (fun impl -> (impl, medians impl)) Exp_common.all_impls) :: !own;
      (* The spread of each P=1 row: its per-round values. *)
      List.iter
        (fun impl ->
          let per_round =
            Array.to_list (Array.map (fun r -> (List.assoc Driver.F77 r).(0) /. (List.assoc impl r).(0)) predicted)
          in
          Printf.printf "# class %s %s P=1 over the rounds: %.2f-%.2f\n" cls.Classes.name
            (Exp_common.impl_label impl) (List.fold_left Float.min Float.infinity per_round)
            (List.fold_left Float.max Float.neg_infinity per_round))
        Exp_common.all_impls;
      let crossover = ref None in
      Array.iteri (fun i s -> if s > f77.(i) && !crossover = None then crossover := Some (i + 1)) sac;
      List.iter
        (fun (impl, series) ->
          all_rows :=
            ([ cls.Classes.name; Exp_common.impl_label impl ]
            @ Array.to_list (Array.map (fun s -> Printf.sprintf "%.2f" s) series))
            :: !all_rows)
        [ (Driver.F77, f77); (Driver.Sac, sac); (Driver.C, c) ];
      (match !crossover with
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
    (fun ((cls : Classes.t), medians) ->
      let ratio impl =
        match (cls.Classes.name, impl) with
        | "A", Driver.Sac -> 1.23
        | "A", Driver.C -> 1.51
        | _, Driver.Sac -> 1.296
        | _, Driver.C -> 1.48
        | _, Driver.F77 -> 1.0
        | _, Driver.Periodic -> invalid_arg "fig13: the paper has no ratio for the periodic program"
      in
      let sac_s = ref [||] and f77_s = ref [||] in
      List.iter
        (fun (impl, times) ->
          let series = Array.map (fun t -> times.(0) /. t /. ratio impl) times in
          if impl = Driver.Sac then sac_s := series;
          if impl = Driver.F77 then f77_s := series;
          rows2 :=
            ([ cls.Classes.name; Exp_common.impl_label impl ]
            @ Array.to_list (Array.map (fun s -> Printf.sprintf "%.2f" s) series))
            :: !rows2)
        medians;
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
    (List.rev !own);
  Printf.printf "\n";
  Table.render Format.std_formatter ~header
    ~align:(Table.L :: Table.L :: List.map (fun _ -> Table.R) pcols)
    (List.rev !rows2);
  Exp_common.print_spans_dropped ();
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
    Term.(const run $ classes_arg $ procs_arg $ Exp_common.profile_arg $ csv_arg)

let () = exit (Cmd.eval' cmd)
