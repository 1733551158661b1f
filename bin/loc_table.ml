(* Code-size comparison (the paper's §7 claim: the SAC implementation
   "reduces the code size compared with the two low-level solutions
   under consideration by more than an order of magnitude").

   Counts non-blank, non-comment source lines of the three MG
   implementations in this repository.  The SAC-style program counts
   only the benchmark program itself (mg_sac.ml) — the array library
   and with-loop engine play the role of the SAC compiler and standard
   library, exactly as the paper's count excludes sac2c and its array
   library.

   A second table sizes the repository itself with the same count over
   every .ml and .mli file: each library under lib/, the executables,
   tests and benchmark, and the five largest lib/ modules. *)

module Table = Mg_bench_util.Bench_util.Table

(* Count non-blank lines outside (* ... *) comments (nesting aware). *)
let count_loc path =
  let ic = open_in path in
  let depth = ref 0 and count = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let significant = ref false in
       let n = String.length line in
       let i = ref 0 in
       while !i < n do
         if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
           incr depth;
           i := !i + 2
         end
         else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' && !depth > 0 then begin
           decr depth;
           i := !i + 2
         end
         else begin
           if !depth = 0 && line.[!i] <> ' ' && line.[!i] <> '\t' then significant := true;
           incr i
         end
       done;
       if !significant then incr count
     done
   with End_of_file -> close_in ic);
  !count

let sources =
  [ ("SAC-style (mg_sac.ml)", [ "lib/core/mg_sac.ml" ]);
    ("Fortran-77 port (mg_f77.ml + schedule.ml)", [ "lib/core/mg_f77.ml"; "lib/core/schedule.ml" ]);
    ("C port (mg_c.ml + schedule.ml)", [ "lib/core/mg_c.ml"; "lib/core/schedule.ml" ]);
  ]

(* The .ml and .mli files under [dir] (relative to [root]),
   recursively, in name order; build and hidden directories are
   skipped. *)
let rec ocaml_files root dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory (Filename.concat root p) then
        if f.[0] = '_' || f.[0] = '.' then [] else ocaml_files root p
      else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
      else [])
    (List.sort compare (Array.to_list (Sys.readdir (Filename.concat root dir))))

let size_table root =
  let loc p = count_loc (Filename.concat root p) in
  let total dir = List.fold_left (fun acc p -> acc + loc p) 0 (ocaml_files root dir) in
  let libs =
    List.filter
      (fun d -> Sys.is_directory (Filename.concat root ("lib/" ^ d)))
      (List.sort compare (Array.to_list (Sys.readdir (Filename.concat root "lib"))))
  in
  let modules =
    List.filter_map
      (fun p -> if Filename.check_suffix p ".ml" then Some (p, loc p) else None)
      (ocaml_files root "lib")
  in
  let largest =
    List.filteri (fun i _ -> i < 5) (List.stable_sort (fun (_, a) (_, b) -> compare b a) modules)
  in
  let row name n = [ name; string_of_int n ] in
  Printf.printf "\n# Size of the repository (non-blank, non-comment lines of .ml and .mli files)\n\n";
  Table.render Format.std_formatter ~header:[ "code"; "lines" ] ~align:[ Table.L; Table.R ]
    (List.map (fun d -> row ("lib/" ^ d) (total ("lib/" ^ d))) libs
    @ List.map (fun d -> row (d ^ "/") (total d)) [ "lib"; "bin"; "test"; "mgbench" ]
    @ List.map (fun (p, n) -> row ("largest: " ^ p) n) largest)

let run root =
  Exp_common.header ();
  Printf.printf "# Code size of the three MG implementations (non-blank, non-comment lines)\n";
  Printf.printf "# Paper: the SAC program is more than an order of magnitude smaller.\n\n";
  let resolve p = Filename.concat root p in
  let missing = List.exists (fun (_, ps) -> List.exists (fun p -> not (Sys.file_exists (resolve p))) ps) sources in
  if missing then begin
    Printf.eprintf "source files not found under %s — run from the repository root or pass --root\n" root;
    1
  end
  else begin
    let counts = List.map (fun (name, ps) -> (name, List.fold_left (fun acc p -> acc + count_loc (resolve p)) 0 ps)) sources in
    let sac = List.assoc "SAC-style (mg_sac.ml)" counts in
    let rows =
      List.map
        (fun (name, c) -> [ name; string_of_int c; Printf.sprintf "%.1fx" (float_of_int c /. float_of_int sac) ])
        counts
    in
    Table.render Format.std_formatter ~header:[ "implementation"; "lines"; "vs SAC" ]
      ~align:[ Table.L; Table.R; Table.R ] rows;
    size_table root;
    0
  end

open Cmdliner

let root_arg = Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc:"Repository root.")

let cmd =
  Cmd.v (Cmd.info "loc_table" ~doc:"code-size comparison of the three implementations")
    Term.(const run $ root_arg)

let () = exit (Cmd.eval' cmd)
