(* Checks of the benchmark definition and the harness:

     test_mgbench.exe MGBENCH_EXE BENCHMARK_JSON

   - names, units and caps stay within the BENCHMARK.json contract;
   - the committed BENCHMARK.json is `mgbench --print-spec` verbatim;
   - a corrupted rnm2 counts as a failed op;
   - `--smoke` prints every metric of the spec, end-to-end and
     per-layer, for every workload, with every op passing. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let matches allowed s = s <> "" && String.for_all allowed s

let is_alnum c =
  match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

let name_ok s =
  String.length s <= 64 && matches (fun c -> is_alnum c || String.contains "_.-" c) s && is_alnum s.[0]

let unit_ok s = String.length s <= 16 && matches (fun c -> is_alnum c || String.contains "_/%.-" c) s

let spec_checks () =
  let metrics = Spec.end_to_end @ Spec.per_layer in
  let names = List.map (fun (w : Spec.workload) -> w.Spec.name) Spec.workloads
  and mnames = List.map (fun (m : Spec.metric) -> m.Spec.name) metrics in
  List.iter (fun n -> check ("name " ^ n) (name_ok n)) (names @ mnames);
  check "names are unique"
    (List.length (List.sort_uniq compare (names @ mnames)) = List.length (names @ mnames));
  List.iter (fun (m : Spec.metric) -> check ("unit of " ^ m.Spec.name) (unit_ok m.Spec.unit_)) metrics;
  List.iter
    (fun (w : Spec.workload) ->
      check ("why of " ^ w.Spec.name)
        (String.length w.Spec.why <= 200 && not (String.contains w.Spec.why '\n')))
    Spec.workloads;
  let n = List.length in
  check "2..8 workloads" (n Spec.workloads >= 2 && n Spec.workloads <= 8);
  check "1..16 end-to-end metrics" (n Spec.end_to_end >= 1 && n Spec.end_to_end <= 16);
  check "1..128 per-layer metrics" (n Spec.per_layer >= 1 && n Spec.per_layer <= 128);
  check "1 <= run_seconds <= 60" (Spec.run_seconds >= 1 && Spec.run_seconds <= 60);
  let bound (m : Spec.metric) = Option.value m.Spec.bound ~default:nan in
  List.iter
    (fun (m : Spec.metric) ->
      check ("bound of " ^ m.Spec.name) (bound m > 0.0 && bound m <= 0.25))
    Spec.end_to_end;
  List.iter
    (fun (m : Spec.metric) -> check ("no bound on " ^ m.Spec.name) (m.Spec.bound = None))
    Spec.per_layer;
  match List.find_opt (fun (m : Spec.metric) -> m.Spec.name = "setup_s") Spec.end_to_end with
  | None -> check "setup_s is an end-to-end metric" false
  | Some s ->
      check "setup_s is seconds, lower is better" (s.Spec.unit_ = "s" && s.Spec.better = Spec.Lower);
      check "setup_s has the largest bound"
        (List.for_all (fun m -> bound m <= bound s) Spec.end_to_end)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let corrupted_rnm2 () =
  let ops = Record.ops () in
  let rnm2 = 5.307707005734e-05 in
  ignore (Record.check ops ~key:"k" ~rnm2 ~verified:true);
  let flipped = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float rnm2) 1L) in
  check "corrupted rnm2 is rejected" (not (Record.check ops ~key:"k" ~rnm2:flipped ~verified:true));
  check "unverified rnm2 is rejected" (not (Record.check ops ~key:"k" ~rnm2 ~verified:false));
  check "a failed op is counted" (ops.Record.attempted = 3 && ops.Record.failed = 2)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with l :: _ -> l | [] -> ""

let smoke exe =
  List.iter
    (fun (w : Spec.workload) ->
      List.iter
        (fun (trace, spec) ->
          let what = Printf.sprintf "%s --trace %d" w.Spec.name trace in
          let ic =
            Unix.open_process_args_in exe
              [| exe; "--workload"; w.Spec.name; "--smoke"; "--trace"; string_of_int trace |]
          in
          let out = In_channel.input_all ic in
          check (what ^ " exits 0") (Unix.close_process_in ic = Unix.WEXITED 0);
          let line = last_line out in
          check (what ^ " is correct") (contains line "{\"correct\": true,");
          List.iter
            (fun (m : Spec.metric) ->
              check
                (what ^ " prints " ^ m.Spec.name)
                (contains line (Printf.sprintf "%S: {\"value\": " m.Spec.name)))
            spec;
          check (what ^ " prints only spec metrics")
            (count_sub line "{\"value\": " = List.length spec))
        [ (0, Spec.end_to_end); (1, Spec.per_layer) ])
    Spec.workloads

let () =
  let exe, json =
    match Sys.argv with
    | [| _; exe; json |] ->
        ((if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe), json)
    | _ ->
        prerr_endline "usage: test_mgbench MGBENCH_EXE BENCHMARK_JSON";
        exit 2
  in
  spec_checks ();
  check "BENCHMARK.json is mgbench --print-spec" (read_file json = Spec.render ());
  corrupted_rnm2 ();
  smoke exe;
  if !failures > 0 then exit 1;
  print_endline "mgbench: all checks passed"
