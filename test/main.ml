(* MG_PROCS=n runs the whole suite with an n-domain worker pool, so CI
   can exercise the parallel executor paths with the same tests.
   MG_REUSE=0 turns the executor's buffer-reuse (in-place update) pass
   off, MG_POOLING=0 the arena allocator; the CI matrix runs the legs,
   asserting the results are independent of either.  All of them reach
   the suite through Engine.config_of_env — the default engine is
   built from the environment and nothing is mutated here. *)
let () =
  let c = Mg_withloop.Engine.config (Mg_withloop.Engine.default ()) in
  if c.Mg_withloop.Engine.threads > 1 then
    Printf.printf "MG_PROCS=%d: running suite with %d-domain pool\n%!"
      c.Mg_withloop.Engine.threads c.Mg_withloop.Engine.threads;
  if not c.Mg_withloop.Engine.reuse then
    Printf.printf "MG_REUSE=0: buffer-reuse pass disabled\n%!";
  if not c.Mg_withloop.Engine.pooling then
    Printf.printf "MG_POOLING=0: arena pooling disabled\n%!";
  Alcotest.run "sac_mg"
    [ Test_shape.suite;
      Test_ndarray.suite;
      Test_nasrand.suite;
      Test_generator.suite;
      Test_ixmap.suite;
      Test_withloop.suite;
      Test_fusion.suite;
      Test_exec_oracle.suite;
      Test_mempool.suite;
      Test_reference_oracle.suite;
      Test_plan_cache.suite;
      Test_arraylib.suite;
      Test_border.suite;
      Test_domain_pool.suite;
      Test_stencil.suite;
      Test_zran3.suite;
      Test_verify.suite;
      Test_mg.suite;
      Test_periodic.suite;
      Test_linform.suite;
      Test_ir.suite;
      Test_driver.suite;
      Test_engine.suite;
      Test_staged.suite;
      Test_tape_liveness.suite;
      Test_cold_solve.suite;
      Test_schedule.suite;
      Test_smp_sim.suite;
      Test_bench_util.suite;
      Test_obs.suite;
      Test_serve.suite;
    ]
