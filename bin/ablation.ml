(* Ablations for the design choices §5 of the paper analyses:

   --stencil : the hand optimisation story — one residual sweep under
     four regimes: naive 27-multiplication evaluation (with-loops at
     O0), coefficient-factored with-loops (O1+), the C port's factored
     but unbuffered loops, and the Fortran port's partial-sum line
     buffers (12-20 additions).

   --fusion : with-loop folding — the full benchmark at O0..O3 with
     materialisation counts from the solve's traced operations.

   --memory : dynamic memory management — per-grid-level time and
     per-element cost of the SAC implementation against the Fortran
     port, showing the overhead growing towards the coarse end of the
     V-cycle (the scalability limit of §5).

   --kernel-path : the staged-compilation story — one interpolation
     sweep (the bodies no fixed kernel recognises) under the
     interpreted generic cluster nest against the compiled Cfun
     closures, with the kernel-dispatch counters showing which path
     actually ran.

   The global --kernels=generic|cfun|native toggle forces the
   unrecognised-body path for every section, so the fusion/memory
   tables (E4) can be re-measured each way.  *)

open Mg_ndarray
open Mg_core
module Wl = Mg_withloop.Wl
module Engine = Mg_withloop.Engine
module Table = Mg_bench_util.Bench_util.Table
module Timing = Mg_bench_util.Bench_util.Timing
module Smp_sim = Mg_smp.Smp_sim

let stencil_ablation n =
  Printf.printf "# Stencil ablation: one %d^3 residual sweep (A operator)\n" n;
  Printf.printf "# Per-element operation counts: naive = 27 mult / 26 add;\n";
  Printf.printf "# factored = 4 mult / 26 add; line-buffered = 4 mult / 12-20 add.\n\n";
  let m = n + 2 in
  let shp = [| m; m; m |] in
  let u = Ndarray.init shp (fun iv -> float_of_int ((iv.(0) * 13) + (iv.(1) * 7) + iv.(2)) /. 97.0) in
  let v = Ndarray.init shp (fun iv -> float_of_int iv.(0)) in
  let r = Ndarray.create shp in
  let a = Stencil.to_array Stencil.a in
  let elements = float_of_int (n * n * n) in
  let wl_variant ?(linebuf = false) level () =
    Wl.with_config
      (fun c -> { c with Engine.line_buffers = linebuf; opt_level = level })
      (fun () -> ignore (Wl.force (Mg_sac.relax_kernel Stencil.a (Wl.of_ndarray u))))
  in
  let variants =
    [ ("with-loop, naive (O0)", fun () -> wl_variant Engine.O0 ());
      ("with-loop, factored (O1)", fun () -> wl_variant Engine.O1 ());
      ("with-loop, line-buffered (O1)", fun () -> wl_variant ~linebuf:true Engine.O1 ());
      ("C port (factored, unbuffered)", fun () -> Mg_c.resid ~u ~v ~r ~a);
      ("Fortran port (line buffers)", fun () -> Mg_f77.resid ~u ~v ~r ~a);
    ]
  in
  let rows =
    List.map
      (fun (name, f) ->
        let t, () = Timing.best_of ~warmup:1 ~times:5 f in
        [ name; Printf.sprintf "%.3f ms" (t *. 1e3); Printf.sprintf "%.1f ns" (t /. elements *. 1e9) ])
      variants
  in
  Table.render Format.std_formatter ~header:[ "variant"; "sweep time"; "per element" ]
    ~align:[ Table.L; Table.R; Table.R ] rows

(* E10: generic interpreted cluster walk vs staged Cfun compilation on
   the one operator whose bodies no fixed kernel fully covers — the
   coarse-to-fine interpolation (residue-class split at O3 leaves
   unrecognised strided parts).  Each measurement rebuilds the graph so
   the force is not satisfied from the per-node cache; the plan cache
   keys include the cfun flag, so both paths replay their own plans. *)
let kernel_ablation n =
  Printf.printf "# Kernel-path ablation: one %d^3 interpolation sweep (coarse2fine, O3)\n" n;
  Printf.printf "# generic = interpreted per-element cluster walk;\n";
  Printf.printf "# cfun = staged compiled closures (deltas unrolled, longest-axis rows);\n";
  Printf.printf "# native = AOT-compiled shared-object kernels (dlopen'd C).\n\n";
  let mc = (n / 2) + 2 in
  let z =
    Ndarray.init [| mc; mc; mc |] (fun iv ->
        float_of_int ((iv.(0) * 13) + (iv.(1) * 7) + iv.(2)) /. 97.0)
  in
  let c_generic = Mg_obs.Metrics.counter "kernel.generic" in
  let c_cfun = Mg_obs.Metrics.counter "kernel.cfun" in
  let c_native = Mg_obs.Metrics.counter "kernel.native" in
  let sweep tier () =
    Wl.with_config
      (fun c -> Engine.with_tier tier { c with Engine.opt_level = Engine.O3 })
      (fun () -> ignore (Wl.force (Mg_sac.coarse2fine (Wl.of_ndarray z))))
  in
  let elements = float_of_int (n * n * n) in
  let rows =
    List.map
      (fun (name, tier) ->
        let g0 = Mg_obs.Metrics.value c_generic
        and f0 = Mg_obs.Metrics.value c_cfun
        and n0 = Mg_obs.Metrics.value c_native in
        let t, () = Timing.best_of ~warmup:1 ~times:5 (sweep tier) in
        let g1 = Mg_obs.Metrics.value c_generic
        and f1 = Mg_obs.Metrics.value c_cfun
        and n1 = Mg_obs.Metrics.value c_native in
        [ name;
          Printf.sprintf "%.3f ms" (t *. 1e3);
          Printf.sprintf "%.1f ns" (t /. elements *. 1e9);
          string_of_int (g1 - g0);
          string_of_int (f1 - f0);
          string_of_int (n1 - n0);
        ])
      [ ("generic cluster nest", Engine.Generic);
        ("compiled cfun closures", Engine.Cfun);
        ("AOT native kernels", Engine.Native);
      ]
  in
  Table.render Format.std_formatter
    ~header:[ "kernel path"; "sweep time"; "per element"; "generic hits"; "cfun hits"; "native hits" ]
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R; Table.R ] rows

let fusion_ablation (cls : Classes.t) =
  Printf.printf "# With-loop folding ablation: %s at O0..O3\n" cls.Classes.name;
  Printf.printf "# 'loops' = with-loops actually executed (materialisations);\n";
  Printf.printf "# folding replaces producer arrays by inlined computation.\n\n";
  let rows =
    List.map
      (fun level ->
        let r = Driver.run ~opt:level ~trace:true ~impl:Driver.Sac ~cls () in
        let loops = List.length r.Driver.ops in
        let bytes = List.fold_left (fun acc (op : Smp_sim.op) -> acc + op.Smp_sim.bytes) 0 r.Driver.ops in
        [ Engine.opt_level_to_string level;
          Printf.sprintf "%.3f" r.Driver.seconds;
          string_of_int loops;
          Printf.sprintf "%.1f MB" (float_of_int bytes /. 1e6);
          Format.asprintf "%a" Verify.pp_status r.Driver.status;
        ])
      [ Engine.O0; Engine.O1; Engine.O2; Engine.O3 ]
  in
  Table.render Format.std_formatter
    ~header:[ "level"; "seconds"; "loops"; "allocated"; "verification" ]
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.L ] rows

let memory_ablation (cls : Classes.t) =
  Printf.printf "# Per-level cost: %s (dynamic memory / per-operation overhead)\n" cls.Classes.name;
  Printf.printf "# The paper: overhead is invariant against grid size, so its relative\n";
  Printf.printf "# weight grows towards the coarse grids — SAC's scalability limit.\n\n";
  (* Normalise both runs to V-cycle levels (interior extents, powers
     of two): with-loop ops report extended extents and scatter
     intermediates report doubled coarse extents, so take the largest
     power of two not exceeding the interior size. *)
  let pow2_floor x =
    let rec go p = if p * 2 <= x then go (p * 2) else p in
    if x < 1 then 0 else go 1
  in
  let by_level ~normalise ops =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (op : Smp_sim.op) ->
        let key = if normalise then pow2_floor (max 1 (op.Smp_sim.extent - 2)) else op.Smp_sim.extent in
        let t, c, el = try Hashtbl.find tbl key with Not_found -> (0.0, 0, 0) in
        Hashtbl.replace tbl key (t +. op.Smp_sim.seconds, c + 1, el + op.Smp_sim.elements))
      ops;
    List.sort (fun (a, _) (b, _) -> compare b a) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Wl.cache_clear ();
  let sac = by_level ~normalise:true (Exp_common.traced_ops ~impl:Driver.Sac ~cls) in
  let cstats = Wl.cache_stats () in
  let f77 = by_level ~normalise:false (Exp_common.traced_ops ~impl:Driver.F77 ~cls) in
  let rows =
    List.map
      (fun (lvl, (t, c, el)) ->
        let f77_t =
          match List.assoc_opt lvl f77 with Some (t, _, _) -> t | None -> 0.0
        in
        [ string_of_int lvl;
          string_of_int c;
          Printf.sprintf "%.2f ms" (t *. 1e3);
          Printf.sprintf "%.1f ns" (if el = 0 then 0.0 else t /. float_of_int el *. 1e9);
          Printf.sprintf "%.2f ms" (f77_t *. 1e3);
          (if f77_t > 0.0 then Printf.sprintf "%.1fx" (t /. f77_t) else "-");
        ])
      sac
  in
  Table.render Format.std_formatter
    ~header:[ "grid n"; "SAC ops"; "SAC time"; "SAC ns/elt"; "F77 time"; "SAC/F77" ]
    ~align:[ Table.R; Table.R; Table.R; Table.R; Table.R; Table.R ] rows;
  let total = cstats.Mg_withloop.Plan_cache.hits + cstats.Mg_withloop.Plan_cache.misses in
  Printf.printf
    "\n# plan cache: %d hits / %d misses (%.1f%% hit rate), %d evictions,\n\
     # %d uncacheable forces, %.3f ms of compilation skipped\n"
    cstats.Mg_withloop.Plan_cache.hits cstats.Mg_withloop.Plan_cache.misses
    (if total = 0 then 0.0 else 100.0 *. float_of_int cstats.Mg_withloop.Plan_cache.hits /. float_of_int total)
    cstats.Mg_withloop.Plan_cache.evictions cstats.Mg_withloop.Plan_cache.uncacheable
    (cstats.Mg_withloop.Plan_cache.saved_seconds *. 1e3)

(* E11: the in-place-update story — the full benchmark with the
   executor's buffer-reuse analysis on and off, crossed with the kernel
   path.  [mempool.reuse_hits] counts sweeps that wrote through a dead
   operand's buffer; [mempool.alloc_bytes] counts fresh Bigarray
   allocation the pool could not satisfy; minor words come from [Gc].
   Each run starts from a cleared plan cache and buffer pool so the
   allocation columns are comparable. *)
let reuse_ablation (cls : Classes.t) =
  Printf.printf "# Buffer-reuse ablation: %s (in-place update of dead operands)\n" cls.Classes.name;
  Printf.printf "# reuse=on aliases a fully covered sweep's output with a dead operand's\n";
  Printf.printf "# buffer when every read of it is an identity read (off: pool alloc).\n\n";
  let c_hits = Mg_obs.Metrics.counter "mempool.reuse_hits" in
  let c_bytes = Mg_obs.Metrics.counter "mempool.alloc_bytes" in
  let rows =
    List.map
      (fun (path, cfun, reuse) ->
        Wl.cache_clear ();
        Mg_withloop.Mempool.clear ();
        let h0 = Mg_obs.Metrics.value c_hits and b0 = Mg_obs.Metrics.value c_bytes in
        let mw0 = (Gc.quick_stat ()).Gc.minor_words in
        let r =
          Driver.run ~cfun ~reuse ~impl:Driver.Sac ~cls ()
        in
        let h1 = Mg_obs.Metrics.value c_hits and b1 = Mg_obs.Metrics.value c_bytes in
        let mw1 = (Gc.quick_stat ()).Gc.minor_words in
        [ path;
          (if reuse then "on" else "off");
          Printf.sprintf "%.3f" r.Driver.seconds;
          string_of_int (h1 - h0);
          Printf.sprintf "%.1f MB" (float_of_int (b1 - b0) /. 1e6);
          Printf.sprintf "%.1f MW" ((mw1 -. mw0) /. 1e6);
          Format.asprintf "%a" Verify.pp_status r.Driver.status;
        ])
      [ ("generic", false, false);
        ("generic", false, true);
        ("cfun", true, false);
        ("cfun", true, true);
      ]
  in
  Table.render Format.std_formatter
    ~header:[ "kernel path"; "reuse"; "seconds"; "reuse hits"; "pool alloc"; "minor words"; "verification" ]
    ~align:[ Table.L; Table.L; Table.R; Table.R; Table.R; Table.R; Table.L ] rows

(* E8: the §7 "future work" — direct periodic relaxation on bare grids
   (Mg_periodic) against the border-based benchmark program (Mg_sac). *)
let periodic_ablation (cls : Classes.t) =
  Printf.printf "# Border-based vs direct-periodic implementation: %s\n" cls.Classes.name;
  Printf.printf "# §7 of the paper asks for relaxation without artificial border\n";
  Printf.printf "# elements; Mg_periodic implements it as a folded sum of rotations.\n\n";
  let rows =
    List.map
      (fun impl ->
        let r = Driver.run ~impl ~cls () in
        [ Exp_common.impl_label impl;
          Printf.sprintf "%.3f" r.Driver.seconds;
          Printf.sprintf "%.13e" r.Driver.rnm2;
          Format.asprintf "%a" Verify.pp_status r.Driver.status;
        ])
      [ Driver.Sac; Driver.Periodic ]
  in
  Table.render Format.std_formatter ~header:[ "implementation"; "seconds"; "rnm2"; "verification" ]
    ~align:[ Table.L; Table.R; Table.R; Table.L ] rows

let run stencil fusion memory periodic kernelpath reuse kernels n cls =
  Exp_common.header ();
  let run_sections () =
    let any = stencil || fusion || memory || periodic || kernelpath || reuse in
  if stencil || not any then stencil_ablation n;
  if kernelpath || not any then begin
    if stencil || not any then Printf.printf "\n";
    kernel_ablation n
  end;
  if fusion || not any then begin
    Printf.printf "\n";
    fusion_ablation cls
  end;
  if memory || not any then begin
    Printf.printf "\n";
    memory_ablation cls
  end;
  if reuse || not any then begin
    Printf.printf "\n";
    reuse_ablation cls
  end;
  if periodic || not any then begin
    Printf.printf "\n";
    periodic_ablation cls
  end
  in
  (* A scoped engine derivation: the override is gone when the sections
     return. *)
  Exp_common.with_kernels kernels run_sections;
  0

open Cmdliner

let stencil_arg = Arg.(value & flag & info [ "stencil" ] ~doc:"Stencil-implementation ablation only.")
let fusion_arg = Arg.(value & flag & info [ "fusion" ] ~doc:"With-loop-folding ablation only.")
let memory_arg = Arg.(value & flag & info [ "memory" ] ~doc:"Per-level memory-overhead table only.")
let periodic_arg = Arg.(value & flag & info [ "periodic" ] ~doc:"Border-based vs direct-periodic ablation only.")

let kernelpath_arg =
  Arg.(value & flag & info [ "kernel-path" ] ~doc:"Generic-vs-cfun kernel-path ablation only.")

let reuse_arg =
  Arg.(value & flag & info [ "reuse" ] ~doc:"Buffer-reuse (in-place update) ablation only.")

let kernels_arg =
  Exp_common.kernels_arg
    ~doc:"Force the kernel path for unrecognised bodies in every section: \
          $(b,generic) (interpreted cluster nest), $(b,cfun) (staged compiled \
          closures, the O2+ default) or $(b,native) (AOT shared-object kernels)."

let n_arg = Arg.(value & opt int 64 & info [ "n"; "extent" ] ~docv:"N" ~doc:"Grid extent for the stencil ablation.")

let class_conv =
  Arg.conv
    ( (fun s ->
        match Classes.of_string s with
        | Some c -> Ok c
        | None -> Error (`Msg "unknown class")),
      fun ppf (c : Classes.t) -> Format.pp_print_string ppf c.Classes.name )

let class_arg =
  Arg.(value & opt class_conv Classes.class_s & info [ "class" ] ~docv:"CLASS" ~doc:"Class for fusion/memory ablations.")

let cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"ablation studies for the paper's §5 design analysis")
    Term.(const run $ stencil_arg $ fusion_arg $ memory_arg $ periodic_arg $ kernelpath_arg
          $ reuse_arg $ kernels_arg $ n_arg $ class_arg)

let () = exit (Cmd.eval' cmd)
