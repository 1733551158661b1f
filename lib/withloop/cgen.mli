(** C code generation for the native AOT backend.

    Pretty-prints one compiled rank-3 part (clusters + constant +
    output steps) as a C translation unit exporting a single function
    behind the fixed ABI

    {v void mg_kernel_0(double **slots, const long *dims,
                        long row_lo, long row_hi); v}

    with [slots = [out; src_0; ...]] and
    [dims = [n0; n1; n2; obase; base_0; ...]].  Walk steps, output
    steps, coefficients and delta offsets are baked into the text
    (they are structural per plan); buffers, bases and counts stay
    runtime arguments so cached-plan replay, piece base-shifting and
    tiling reuse one object unchanged.  The emitted statement
    sequence replicates {!Kernel.run_lin_generic}'s accumulation order
    exactly — compiled with [-ffp-contract=off] and no fast-math the
    results are bitwise identical to the interpreted nest. *)

val abi_version : int
(** Bumped whenever the emitted ABI or accumulation contract changes;
    part of the on-disk cache key, so stale objects are never
    reloaded. *)

val kernel_symbol : string
(** The exported symbol name ([mg_kernel_0]). *)

val supported : const:float -> Cluster.ccluster array -> bool
(** Whether the part can be emitted at all: finite constants and
    coefficients (hexfloat literals exist), cluster count within the
    call shim's slot bound. *)

val c_source : const:float -> Cluster.ccluster array -> osteps:int array -> string
(** The translation unit's text.  Deterministic in its arguments —
    the disk cache digests it directly. *)
