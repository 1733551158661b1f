(** Unified benchmark driver: run any implementation on any class with
    a chosen optimisation level and thread count, with optional
    operation tracing — the entry point the CLI, the experiment
    binaries and the test-suite integration tests all share. *)

open Mg_withloop

type impl = Sac | F77 | C | Periodic

val impl_of_string : string -> impl option
val impl_to_string : impl -> string

type result = {
  impl : impl;
  cls : Classes.t;
  rnm2 : float;  (** Final residual L2 norm. *)
  seconds : float;  (** Wall time of the iteration phase. *)
  status : Verify.status;
  ops : Mg_smp.Smp_sim.op list;
      (** The solve's operations, read off its spans
          ({!Mg_smp.Smp_sim.traced}); empty unless [trace] was
          requested. *)
}

val run :
  ?engine:Engine.t ->
  ?tenant:string ->
  ?opt:Engine.opt_level ->
  ?threads:int ->
  ?cfun:bool ->
  ?native:bool ->
  ?reuse:bool ->
  ?pooling:bool ->
  ?trace:bool ->
  impl:impl ->
  cls:Classes.t ->
  unit ->
  result
(** Each call solves under a one-shot engine derived from [engine]
    (default: the calling domain's current engine) with the given
    overrides applied; unspecified knobs inherit the base engine's
    configuration.  No global state is mutated and nothing needs
    restoring — a raising solve cannot leak settings into the next
    caller.  For concurrent runs with different configurations, pass
    each call its own {!Engine.create}d engine (derived engines share
    their parent's execution pool, which is not reentrant).

    Every solve runs under a fresh {!Mg_obs.Scope} (stamped with the
    engine's {!Engine.label} and the optional [tenant], writing to the
    engine's metric shards) and leaves one
    {!Mg_obs.Flight} record behind — even when spans are off. *)

val traced_run : impl:impl -> cls:Classes.t -> result
(** [run ~trace:true] at sequential settings — the input for
    {!Mg_smp.Smp_sim}.  Spans are switched on for the solve only and
    never cleared, so a caller's span session keeps them; only this
    solve's spans become its [ops], even while other domains solve.
    Raises [Failure] rather than return ops a wrapped span ring
    truncated. *)

val pp_result : Format.formatter -> result -> unit
