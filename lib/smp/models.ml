let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let tag_in prefixes (op : Smp_sim.op) = List.exists (fun p -> has_prefix p op.Smp_sim.tag) prefixes

let sac =
  { Smp_sim.name = "SAC";
    can_parallelize = tag_in [ "wl:" ];
    min_par_elements = 1024;
    spawn_seconds = 18e-6;
    chunk_seconds = 1.5e-6;
    imbalance = 0.004;
    mem_per_alloc_seconds = 35e-6;
  }

let f77_autopar =
  { Smp_sim.name = "Fortran-77";
    can_parallelize = tag_in [ "f77:resid"; "f77:psinv" ];
    min_par_elements = 2048;
    spawn_seconds = 30e-6;
    chunk_seconds = 3e-6;
    imbalance = 0.012;
    mem_per_alloc_seconds = 0.0;
  }

let openmp =
  { Smp_sim.name = "OpenMP";
    can_parallelize = tag_in [ "c:resid"; "c:psinv"; "c:rprj3"; "c:interp" ];
    min_par_elements = 512;
    spawn_seconds = 5e-6;
    chunk_seconds = 0.3e-6;
    imbalance = 0.001;
    mem_per_alloc_seconds = 0.0;
  }

let all = [ sac; f77_autopar; openmp ]

let of_name n =
  List.find_opt (fun m -> String.lowercase_ascii m.Smp_sim.name = String.lowercase_ascii n) all
