(** The native AOT backend: {!Cgen}-emitted C compiled with the
    system compiler ([-O2 -ffp-contract=off], no fast-math), persisted
    in an on-disk shared-object cache and bound via [dlopen]/[dlsym]
    through a small C shim (no ctypes).

    Shared objects are content-addressed: the cache key is the MD5 of
    (ABI version, compiler command, generated source), which is the
    part's structural fingerprint — identical kernels deduplicate
    across plans, engines, runs and processes.  Compiles, hits and
    failures are counted in the [native.*] {!Mg_obs.Metrics} families
    (compiles and failures sharded per engine via the installed
    scope), and every failure mode — no compiler, compile error, [dlopen]/[dlsym]
    rejection — warns once, memoises the refusal and returns [None]
    so the caller degrades to the cfun/generic tiers transparently. *)

open Mg_ndarray

(** {1 Metrics} *)

val compiles : Mg_obs.Metrics.counter Mg_obs.Scope.family
val failures : Mg_obs.Metrics.counter Mg_obs.Scope.family
val c_disk_hits : Mg_obs.Metrics.counter

(** {1 Compilation} *)

type fn
(** A bound kernel: a function pointer into a loaded shared object.
    Valid for the process lifetime (objects are never dlclosed), and
    holds no buffer — layouts are read from the live cluster array at
    each {!call}. *)

val compile :
  cache_dir:string -> const:float -> Cluster.ccluster array -> osteps:int array -> fn option
(** Emit, compile (or load from [cache_dir]) and bind the part's
    kernel.  [None] when the part is unsupported ({!Cgen.supported})
    or when any stage of the toolchain fails — the failure is counted,
    warned once and memoised so a broken compiler is probed once per
    process, not once per part. *)

val call :
  fn -> Cluster.ccluster array -> Ndarray.buffer -> obase:int -> counts:int array -> unit
(** Run the kernel over the given layouts: buffers and bases are
    gathered from [clusters] at call time (plan replay rebinds
    buffers, piece scheduling shifts bases — neither touches the
    bound pointer), the runtime lock is released around the C call. *)

val reset_for_tests : unit -> unit
(** Drop the in-memory memo (bound kernels and memoised refusals) and
    re-arm the once-per-process warning, so tests can simulate a
    process restart against the disk cache. *)
