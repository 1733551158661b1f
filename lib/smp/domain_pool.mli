(** A persistent pool of OCaml 5 domains for data-parallel loops.

    This is the execution substrate behind the with-loop engine's
    implicit parallelisation, playing the role of SAC's pthread-based
    multithreaded runtime system (Grelck, IFL'98): a fixed team of
    worker domains is created once and with-loops are distributed over
    it in static contiguous blocks; the calling domain always
    participates, so a pool of size [n] uses [n] domains in total
    ([n - 1] workers).

    Work items must not raise: an escaping exception from worker code
    is re-raised on the caller after the barrier, but the pool remains
    usable.  Once a block has failed, unclaimed blocks of the same job
    are abandoned (in-flight blocks on other domains still finish). *)

type t

val create : int -> t
(** [create n] starts a pool executing on [n] domains ([n >= 1]; [1]
    means purely sequential execution on the caller). *)

val size : t -> int

val parallel_for : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [parallel_for pool ~lo ~hi body] cuts the half-open range
    [lo, hi) into one near-equal contiguous block per domain (never
    more blocks than range elements) and runs [body block_lo block_hi]
    for each, concurrently; participants claim blocks as they come
    free.  The calling domain's {!Mg_obs.Scope} (if any) is mirrored
    onto every participant for the job's duration, so worker-side
    telemetry attributes to the submitting solve.  Returns when all
    blocks have completed. *)

val sequential : t
(** A pool of size 1 that never spawns domains. *)

val shutdown : t -> unit
(** Terminate worker domains.  The pool must not be used afterwards;
    calling [shutdown] on {!sequential} is a no-op. *)

val set_domain_hooks : on_start:(unit -> unit) -> on_exit:(unit -> unit) -> unit
(** Register per-worker lifecycle callbacks: [on_start] runs on each
    worker domain right after spawn, [on_exit] right before it
    terminates.  Intended for libraries with domain-local state (the
    with-loop arena allocator registers its arena setup/retirement
    here at load time, before any pool is created).  One registration
    slot; a later call replaces the earlier one.  The hooks only apply
    to domains spawned after registration. *)
