(** Unified benchmark driver: run any implementation on any class with
    a chosen optimisation level and thread count, with optional
    operation tracing — the entry point the CLI, the experiment
    binaries and the test-suite integration tests all share. *)

open Mg_withloop
open Mg_smp

type impl = Sac | F77 | C | Periodic

val impl_of_string : string -> impl option
val impl_to_string : impl -> string

type result = {
  impl : impl;
  cls : Classes.t;
  rnm2 : float;  (** Final residual L2 norm. *)
  seconds : float;  (** Wall time of the iteration phase. *)
  status : Verify.status;
  events : Trace.event list;  (** Empty unless [trace] was requested. *)
}

val run :
  ?engine:Engine.t ->
  ?tenant:string ->
  ?opt:Engine.opt_level ->
  ?threads:int ->
  ?sched:Sched_policy.t ->
  ?backend:Backend.t ->
  ?cfun:bool ->
  ?native:bool ->
  ?reuse:bool ->
  ?pooling:bool ->
  ?line_buffers:bool ->
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
    {!Mg_smp.Smp_sim}. *)

val pp_result : Format.formatter -> result -> unit
