# Convenience targets; `make check` is what CI runs.

.PHONY: all build test smoke profile-smoke metrics-smoke fig-smoke native-smoke serve-smoke check bench clean

all: build

build:
	dune build

test: build
	dune runtest

# Class-S end-to-end run with NAS verification of the SAC implementation.
smoke: build
	dune exec bin/mg_run.exe -- --impl sac --class S

# Exercise the observability pipeline: spans on, profile report to
# stdout and a Perfetto-loadable Chrome trace to results/trace.json.
# Then assert the staged kernel tier actually took over from the
# interpreted generic nest.  MG_KERNELS selects the dispatch tier
# (generic | cfun | native; staged = cfun + native dispatches): for
# the staged tiers some staged kernel must have fired and
# kernel.generic must be at most 10% of the staged+generic dispatches;
# for MG_KERNELS=generic the generic nest itself must have fired.
MG_THREADS ?= 1
MG_KERNELS ?= cfun

profile-smoke: build
	mkdir -p results
	dune exec bin/mg_run.exe -- --impl sac --class W --threads $(MG_THREADS) --kernels $(MG_KERNELS) --profile=report,chrome:results/trace.json --metrics-out=results/profile-w.om > results/profile-w.txt
	cat results/profile-w.txt
	awk -v tier=$(MG_KERNELS) \
	  '/^  kernel\.cfun /{c=$$2} /^  kernel\.native /{n=$$2} /^  kernel\.generic /{g=$$2} \
	  END { sv=c+n+0; gv=g+0; \
	        if (tier == "generic") { \
	          if (gv == 0) { print "profile-smoke: kernel.generic never dispatched"; exit 1 }; \
	          print "profile-smoke: generic tier OK (generic=" gv ")"; exit 0 }; \
	        if (sv == 0) { print "profile-smoke: no staged (cfun/native) kernel dispatched"; exit 1 }; \
	        if (gv * 10 > gv + sv) { print "profile-smoke: kernel.generic " gv " exceeds 10% of " gv+sv; exit 1 }; \
	        print "profile-smoke: staged takeover OK (cfun=" c+0 ", native=" n+0 ", generic=" gv ")" }' results/profile-w.txt
	# The buffer-reuse pass must have fired (on by default at O2+), and
	# fresh pool allocation must stay under a regression ceiling.  Every
	# dead buffer returns to its arena at its last use, so a class-W
	# solve draws ~10.7 MB from the OS with a ~9.5 MB bytes_live
	# high-water, on every tier and thread count (2.3 MB of each is
	# the right-hand side, drawn from the pool).  12 MB on both
	# catches a recycle that is deferred or lost: a buffer held past
	# its last use raises the high-water, one never recycled raises
	# both.
	awk '/^  mempool\.reuse_hits /{h=$$2} /^  mempool\.alloc_bytes /{b=$$2} /^  mempool\.bytes_live /{l=$$2} \
	  END { hv=h+0; bv=b+0; lv=l+0; \
	        if (hv == 0) { print "profile-smoke: buffer-reuse pass never fired"; exit 1 }; \
	        if (bv > 12000000) { print "profile-smoke: mempool.alloc_bytes " bv " exceeds the 12 MB ceiling"; exit 1 }; \
	        if (lv > 12000000) { print "profile-smoke: mempool.bytes_live high-water " lv " exceeds the 12 MB ceiling"; exit 1 }; \
	        print "profile-smoke: buffer reuse OK (hits=" hv ", alloc=" bv " bytes, live_hw=" lv " bytes)" }' results/profile-w.txt
	# Ghost-shell loans: every periodic border whose base has other
	# readers borrows the base's buffer, so no interior copy is left
	# (there were 280 per class-W solve), and the coarse levels' fused
	# restriction + residual bodies run the two-stencil kernel.
	awk '/^  kernel\.copy /{c=$$2; seen=1} /^  kernel\.branch\.stencil2\.lex /{s+=$$2} /^  border\.lent /{l=$$2} \
	  END { if (!seen) { print "profile-smoke: no kernel.copy line in the report"; exit 1 }; \
	        if (c+0 != 0) { print "profile-smoke: " c " interior copies (expected 0)"; exit 1 }; \
	        if (l+0 == 0) { print "profile-smoke: no border lent its base"; exit 1 }; \
	        if (s+0 == 0) { print "profile-smoke: the two-stencil kernel never compiled"; exit 1 }; \
	        print "profile-smoke: borders OK (lent=" l ", copies=0, stencil2 parts=" s ")" }' results/profile-w.txt
	# Ghost-shell groups: each force's one-thick boundary slabs run as
	# one kernel, so a class-W solve dispatches under 5000 interp
	# pieces (24446 with one piece per slab).
	awk '/^  kernel\.branch\.shell /{g=$$2} /^  kernel\.interp /{i=$$2; seen=1} \
	  END { if (!seen) { print "profile-smoke: no kernel.interp line in the report"; exit 1 }; \
	        if (g+0 == 0) { print "profile-smoke: no shell group compiled"; exit 1 }; \
	        if (i+0 >= 5000) { print "profile-smoke: " i " interp pieces (expected under 5000)"; exit 1 }; \
	        print "profile-smoke: shell groups OK (groups=" g ", interp pieces=" i ")" }' results/profile-w.txt
	# Every force of the solve must store or replay a plan.  An
	# uncacheable force re-runs fusion, lowering, clustering and kernel
	# choice on every V-cycle; stolen periodic borders and bindings
	# released mid-force used to make 480 forces per class-W solve
	# uncacheable.
	awk '/^  plan_cache\.uncacheable /{u=$$2; seen=1} \
	  END { if (!seen) { print "profile-smoke: no plan_cache.uncacheable line in the report"; exit 1 }; \
	        if (u+0 != 0) { print "profile-smoke: " u " uncacheable forces (expected 0)"; exit 1 }; \
	        print "profile-smoke: plan cache OK (uncacheable=0)" }' results/profile-w.txt
	# Staged iterations: m_grid's stepper records the first of a class-W
	# solve's 40 iterations (one stage.fallback{reason="unrecorded"})
	# and replays the other 39 with no graph build, key hashing or plan
	# lookup; no other fallback reason may count.
	awk '/^  stage\.replays /{r=$$2; seen=1} \
	  /^  stage\.fallback\{engine=/{ if ($$0 ~ /reason="unrecorded"/) u += $$2; else o += $$2 } \
	  END { if (!seen) { print "profile-smoke: no stage.replays line in the report"; exit 1 }; \
	        if (r+0 != 39) { print "profile-smoke: " r+0 " replayed iterations (expected 39)"; exit 1 }; \
	        if (o+0 != 0) { print "profile-smoke: " o " fallbacks other than unrecorded"; exit 1 }; \
	        print "profile-smoke: staged iterations OK (replays=" r ", unrecorded=" u+0 ")" }' results/profile-w.txt
	# Tape liveness: each of the 39 replayed tapes skips the stores no
	# later op reads (10 parts: dead border walks and shell groups and
	# one whole force, 3 loan saves and restores, 2 fills), on every
	# tier and thread count.  Every skipped part is an interp or a
	# border piece, so kernel.interp + kernel.border reads exactly its
	# count without pruning (2963 on 1 thread, 3926 on 4) minus
	# stage.elided{op="part"}.
	awk -v threads=$(MG_THREADS) \
	  '/^  stage\.elided\{engine=/{ if (match($$0, /op="[a-z]*"/)) e[substr($$0, RSTART + 4, RLENGTH - 5)] += $$2 } \
	  /^  kernel\.interp /{i=$$2; seen=1} /^  kernel\.border /{w=$$2} \
	  END { if (e["part"] != 390 || e["save"] != 117 || e["restore"] != 117 || e["fill"] != 78) { \
	          print "profile-smoke: stage.elided part/save/restore/fill " e["part"]+0 "/" e["save"]+0 "/" e["restore"]+0 "/" e["fill"]+0 " (expected 390/117/117/78)"; exit 1 }; \
	        if (!seen) { print "profile-smoke: no kernel.interp line in the report"; exit 1 }; \
	        base[1] = 2963; base[4] = 3926; \
	        if (threads in base) { \
	          if (i + w + e["part"] != base[threads]) { print "profile-smoke: kernel.interp " i " + kernel.border " w+0 " + elided parts " e["part"] " != " base[threads]; exit 1 }; \
	          print "profile-smoke: tape liveness OK (elided 390/117/117/78, interp " i " + border " w+0 " = " base[threads] " - 390)" } \
	        else print "profile-smoke: tape liveness OK (elided 390/117/117/78; no interp pin for " threads " threads)" }' results/profile-w.txt
	# The arena alloc/recycle fast path must never take the registry
	# mutex: the only "mempool:lock" spans a trace may contain are the
	# cold paths (one arena registration per spawned worker domain,
	# plus clear/stats at run boundaries).
	@locks=$$(grep -o "mempool:lock" results/trace.json | wc -l); \
	  if [ "$$locks" -gt 8 ]; then \
	    echo "profile-smoke: $$locks mempool:lock spans in results/trace.json (alloc path is locking)"; exit 1; \
	  else echo "profile-smoke: mempool lock spans OK ($$locks cold-path spans)"; fi
	# Per-engine cache statistics must be exported: some engine's
	# labelled plan_cache_hits series in the run's OpenMetrics file
	# must count hits.  Each hit is written once, to its engine's
	# series; the unlabelled series is the total derived from them.
	# Plan-cache events always have an engine and this run shuts none
	# down, so the total equals the sum of the engine series exactly.
	awk '/^plan_cache_hits_total\{engine="[^"]*"\} /{ if ($$2+0 > 0) ok=1; sum += $$2 } \
	  /^plan_cache_hits_total /{ total = $$2; seen = 1 } \
	  END { if (!ok) { print "profile-smoke: no per-engine plan-cache hits in results/profile-w.om"; exit 1 }; \
	        if (!seen) { print "profile-smoke: no unlabelled plan_cache_hits_total in results/profile-w.om"; exit 1 }; \
	        if (total + 0 != sum) { print "profile-smoke: plan_cache_hits_total " total " != sum of engine series " sum; exit 1 }; \
	        print "profile-smoke: per-engine cache stats OK (total " total " = sum of engine series)" }' results/profile-w.om

# Exercise the metrics export pipeline end to end: a class-S run with
# the registry written as OpenMetrics text and as JSON-lines, the
# OpenMetrics output linted structurally (TYPE lines, cumulative
# histogram buckets, +Inf/_count agreement, trailing # EOF) by the
# in-repo linter, and the flight recorder dump non-empty.
metrics-smoke: build
	mkdir -p results
	dune exec bin/mg_run.exe -- --impl sac --class S --metrics-out=results/metrics.om --flight > results/metrics-s.txt
	cat results/metrics-s.txt
	dune exec bin/om_lint.exe -- results/metrics.om
	dune exec bin/mg_run.exe -- --impl sac --class S --metrics-out=results/metrics.jsonl > /dev/null
	@grep -q '"type":"histogram"' results/metrics.jsonl 	  && echo "metrics-smoke: JSONL export OK" 	  || { echo "metrics-smoke: no histogram line in results/metrics.jsonl"; exit 1; }
	@grep -q 'solve=' results/metrics-s.txt 	  && echo "metrics-smoke: flight record present" 	  || { echo "metrics-smoke: no flight record in --flight output"; exit 1; }
	@grep -q 'engine="' results/metrics.om 	  && echo "metrics-smoke: labelled per-engine shards present" 	  || { echo "metrics-smoke: no labelled shard in results/metrics.om"; exit 1; }

# Figs. 12/13 end to end at class S: one traced solve per system, its
# operations read off its spans and replayed through the Smp_sim
# machine models.  Every system's row must be there; Fig. 12's P=1
# column is each system's own sequential time, so it reads 1.00, as
# does Fig. 13's Fortran-77 row (the reference); SAC must have a
# parallel fraction (its with-loop ops reached the model); and no span
# may have been dropped.
fig-smoke: build
	mkdir -p results
	dune exec bin/fig12.exe -- --classes S > results/fig12-s.txt
	cat results/fig12-s.txt
	awk '$$1 == "S" { seen[$$2] = 1; if ($$3 != "1.00") { print "fig-smoke: fig12 " $$2 " P=1 reads " $$3; bad = 1 }; \
	                  if ($$2 == "SAC") frac = $$14 } \
	  /^# spans dropped: / { dropped = $$4 } \
	  END { if (bad) exit 1; \
	        if (!seen["Fortran-77"] || !seen["SAC"] || !seen["C/OpenMP"]) { print "fig-smoke: fig12 lacks a system row"; exit 1 }; \
	        if (frac == "" || frac + 0 == 0) { print "fig-smoke: SAC par.frac reads " frac; exit 1 }; \
	        if (dropped != "0") { print "fig-smoke: fig12 dropped spans: " dropped; exit 1 }; \
	        print "fig-smoke: fig12 OK (SAC par.frac " frac ")" }' results/fig12-s.txt
	dune exec bin/fig13.exe -- --classes S > results/fig13-s.txt
	cat results/fig13-s.txt
	awk '$$1 == "S" { seen[$$2]++; if ($$2 == "Fortran-77" && $$3 != "1.00") { print "fig-smoke: fig13 Fortran-77 P=1 reads " $$3; bad = 1 } } \
	  /^# spans dropped: / { dropped = $$4 } \
	  END { if (bad) exit 1; \
	        if (seen["Fortran-77"] != 2 || seen["SAC"] != 2 || seen["C/OpenMP"] != 2) { print "fig-smoke: fig13 lacks a system row"; exit 1 }; \
	        if (dropped != "0") { print "fig-smoke: fig13 dropped spans: " dropped; exit 1 }; \
	        print "fig-smoke: fig13 OK" }' results/fig13-s.txt

# The AOT native backend end to end, from a cold cache: a class-S run
# with --kernels native must dispatch native kernels (>90% takeover of
# the staged rung), record zero compile failures, and populate the
# on-disk .so cache; a second run in a fresh process must then replay
# entirely from disk — zero recompiles, only disk hits — with the
# same rnm2.  Counters come from the unlabelled OpenMetrics lines.
native-smoke: build
	mkdir -p results
	rm -rf _mg_native
	dune exec bin/mg_run.exe -- --impl sac --class S --kernels native --metrics-out=results/native-s.om > results/native-s.txt
	cat results/native-s.txt
	awk '/^kernel_native_total /{n=$$2} /^kernel_cfun_total /{c=$$2} /^kernel_generic_total /{g=$$2} \
	  /^native_compiles_total /{k=$$2} /^native_compile_failures_total /{f=$$2} \
	  END { nv=n+0; cv=c+0; gv=g+0; \
	        if (nv == 0) { print "native-smoke: kernel.native never dispatched"; exit 1 }; \
	        if (f+0 != 0) { print "native-smoke: " f " native compile failures"; exit 1 }; \
	        if (k+0 == 0) { print "native-smoke: cold run compiled nothing"; exit 1 }; \
	        if (nv * 10 < 9 * (nv + cv + gv)) { print "native-smoke: native takeover " nv " below 90% of " nv+cv+gv; exit 1 }; \
	        print "native-smoke: cold run OK (native=" nv ", compiles=" k+0 ", failures=0)" }' results/native-s.om
	dune exec bin/mg_run.exe -- --impl sac --class S --kernels native --metrics-out=results/native-s2.om > results/native-s2.txt
	awk '/^native_compiles_total /{k=$$2} /^native_disk_hits_total /{d=$$2} /^native_compile_failures_total /{f=$$2} \
	  END { if (k+0 != 0) { print "native-smoke: warm run recompiled " k " kernels (disk cache not replayed)"; exit 1 }; \
	        if (d+0 == 0) { print "native-smoke: warm run loaded nothing from the disk cache"; exit 1 }; \
	        if (f+0 != 0) { print "native-smoke: warm run recorded " f " compile failures"; exit 1 }; \
	        print "native-smoke: disk-cache replay OK (disk_hits=" d+0 ", compiles=0)" }' results/native-s2.om
	@r1=$$(sed -n 's/.*rnm2 = \([^ ]*\).*/\1/p' results/native-s.txt); \
	  r2=$$(sed -n 's/.*rnm2 = \([^ ]*\).*/\1/p' results/native-s2.txt); \
	  if [ "$$r1" != "$$r2" ]; then echo "native-smoke: rnm2 drifted across cache replay ($$r1 vs $$r2)"; exit 1; \
	  else echo "native-smoke: rnm2 stable across replay ($$r1)"; fi

# The multi-tenant serving layer end to end: sustained closed-loop
# class-S load through lib/serve across all three kernel tiers with a
# 3:1 tenant mix.  mg_serve_bench itself exits non-zero on any
# admission-accounting leak (submitted != accepted + rejected, or a
# ticket left unresolved), any unverified/failed response, or any
# served rnm2 that is not bitwise-identical to its sequential
# Driver.run twin.  On top of that this target asserts the throughput
# floor (1000 class-S solves/min — the 2-core acceptance bar), a
# generous p99 latency ceiling, lints the OpenMetrics export with the
# in-repo linter, and checks the per-tenant serve_* shards made it
# out.
MG_SERVE_DURATION ?= 60
MG_SERVE_P99_MS ?= 10000

serve-smoke: build
	mkdir -p results
	dune exec bin/mg_serve_bench.exe -- --duration $(MG_SERVE_DURATION) --class S \
	  --tenants a:3,b:1 --kernels generic,cfun,native \
	  --out results/serve_bench.json --metrics-out results/serve_metrics.om \
	  | tee results/serve-smoke.txt
	dune exec bin/om_lint.exe -- results/serve_metrics.om
	awk -v p99max=$(MG_SERVE_P99_MS) \
	  '/^serve_bench: throughput=/ { split($$2, a, "="); tp = a[2]; \
	     split($$4, b, "="); p99 = b[2]; sub(/ms/, "", p99) } \
	  END { if (tp+0 < 1000) { print "serve-smoke: throughput " tp " solves/min below the 1000/min floor"; exit 1 }; \
	        if (p99+0 > p99max+0) { print "serve-smoke: p99 " p99 " ms exceeds the " p99max " ms ceiling"; exit 1 }; \
	        print "serve-smoke: load OK (throughput=" tp "/min, p99=" p99 " ms)" }' results/serve-smoke.txt
	@grep -q '^serve_bench: accounting OK' results/serve-smoke.txt \
	  && grep -q '^serve_bench: bitwise OK' results/serve-smoke.txt \
	  && echo "serve-smoke: accounting and bitwise gates OK" \
	  || { echo "serve-smoke: accounting/bitwise gate line missing"; exit 1; }
	@grep -q 'serve_latency_ns_bucket{tenant="a"' results/serve_metrics.om \
	  && grep -q 'serve_latency_ns_bucket{tenant="b"' results/serve_metrics.om \
	  && echo "serve-smoke: per-tenant latency shards present" \
	  || { echo "serve-smoke: no per-tenant serve_latency_ns shard in results/serve_metrics.om"; exit 1; }

check: build test smoke profile-smoke metrics-smoke fig-smoke native-smoke serve-smoke

bench: build
	dune exec bench/main.exe

clean:
	dune clean
