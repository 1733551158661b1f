(* mgbench: the repository benchmark (see README.md).

     mgbench --workload solve-W [--seed N] [--seconds S] [--trace 0|1]
             [--out FILE] [--smoke]
     mgbench --print-spec

   Prints every metric with its unit, then, as the last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
   reports the end-to-end metrics, --trace 1 the per-layer ones.  Exit
   status 0 iff every op passed its checks. *)

open Mg_core
module Json = Mg_bench_util.Bench_util.Json

(* name -> kind, class, --smoke class *)
let table =
  [ ("solve-W", (Workloads.Solve, Classes.class_w, Classes.mini));
    ("solve-W128", (Workloads.Solve, Classes.class_w128, Classes.mini));
    ("serve-S", (Workloads.Serve, Classes.class_s, Classes.tiny));
    ("cold-S", (Workloads.Cold, Classes.class_s, Classes.tiny));
  ]

let first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let l = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    l
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with Sys_error _ | End_of_file -> "unknown"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let () =
  let loadavg = read_first_line "/proc/loadavg" in
  let workload = ref "" and seed = ref 1 and seconds = ref (float_of_int Spec.run_seconds) in
  let trace = ref 0 and out = ref "" and smoke = ref false and print_spec = ref false in
  let usage = "mgbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" (List.map fst table));
      ("--seed", Arg.Set_int seed, "N  serve-S request order and SAC/F77 pair order");
      ("--seconds", Arg.Set_float seconds, "S  measured duration");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE  also write the result with its environment");
      ("--smoke", Arg.Set smoke, " tiny classes and counts (about 1 s)");
      ("--print-spec", Arg.Set print_spec, " print BENCHMARK.json and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !print_spec then begin
    print_string (Spec.render ());
    exit 0
  end;
  let kind, cls, smoke_cls =
    match List.assoc_opt !workload table with
    | Some w -> w
    | None ->
        prerr_endline ("mgbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "mgbench: --trace takes 0 or 1"; exit 2);
  let cls = if !smoke then smoke_cls else cls in
  let seconds = if !smoke then Float.min !seconds 0.2 else !seconds in
  (* All scratch files, the C compiler's included, stay under the
     working directory. *)
  let scratch =
    Filename.concat (Sys.getcwd ()) (Printf.sprintf ".mgbench/run-%d" (Unix.getpid ()))
  in
  mkdir_p scratch;
  Unix.putenv "TMPDIR" scratch;
  let ctx =
    { Workloads.rng = Random.State.make [| !seed |]; seconds; smoke = !smoke;
      ops = Record.ops (); scratch }
  in
  let spec, metrics =
    Fun.protect
      ~finally:(fun () ->
        rm_rf scratch;
        try Unix.rmdir (Filename.dirname scratch) with Unix.Unix_error _ -> ())
      (fun () ->
        if !trace = 1 then (Spec.per_layer, Layers.run ctx kind cls)
        else (Spec.end_to_end, Workloads.run ctx kind cls))
  in
  let ops = ctx.Workloads.ops in
  let line = Record.result_line ops spec metrics in
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "%-28s %14.6g %s\n" m.Spec.name (List.assoc m.Spec.name metrics) m.Spec.unit_)
    spec;
  if !out <> "" then
    Json.write_file !out
      (Json.Obj
         [ ("schema", Json.Int 1);
           ("workload", Json.String !workload);
           ("class", Json.String cls.Classes.name);
           ("seed", Json.Int !seed);
           ("seconds", Json.Float seconds);
           ("trace", Json.Int !trace);
           ("smoke", Json.Bool !smoke);
           ( "env",
             Json.Obj
               [ ("nproc", Json.Int (Domain.recommended_domain_count ()));
                 ("ocaml", Json.String Sys.ocaml_version);
                 ("cc", Json.String (first_line "cc --version 2>/dev/null"));
                 ("git_rev", Json.String (first_line "git rev-parse HEAD 2>/dev/null"));
                 ("loadavg_start", Json.String loadavg);
               ] );
           ("attempted", Json.Int ops.Record.attempted);
           ("failed", Json.Int ops.Record.failed);
           ( "metrics",
             Json.Obj
               (List.map
                  (fun (m : Spec.metric) ->
                    (m.Spec.name, Json.Float (List.assoc m.Spec.name metrics)))
                  spec) );
         ]);
  print_endline line;
  exit (if ops.Record.failed = 0 then 0 else 1)
