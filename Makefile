# Convenience targets; everything is plain dune underneath.

.PHONY: all check test bench bench-smoke experience-smoke chaos-smoke safety-smoke guard-smoke gossip-smoke store-smoke lazy-smoke confree-smoke heal-smoke baseline-smoke examples-smoke perf-smoke table1-smoke profile clean

all:
	dune build @all

# Build everything and run the whole unit, property and golden-transcript
# suite.
check:
	dune build && dune runtest

test:
	dune runtest

bench:
	dune exec bench/main.exe

# A fast end-to-end probe: boot a tiny fleet, roll an update across it,
# then check that fig5 publishes a non-empty update-cost metrics snapshot
# (the jv_obs instrumentation is wired end to end).
bench-smoke:
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe fleet
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe fig5 \
	  | grep -q "core_update_pause_ms_count"

# Update-experience probe (paper §4, Tables 2-5): every release of the
# four apps is applied as a dynamic update under load, one boot per rung
# from the shared app descriptors.  Exactly one rung (miniftp 1.07 ->
# 1.08, whose sessions keep the changed handler on stack) needs the idle
# retry, and a method-body-only system supports 10 of the 26; an app
# missing from the list, or a rung whose outcome moved, changes these
# counts.
experience-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe experience \
	  | tee _build/experience-smoke.out
	grep -q "Jvolve applied 25 of 26 updates under load; 1 more applied when idle -> 26 of 26 total" \
	  _build/experience-smoke.out
	grep -q "supports 10 of 26" _build/experience-smoke.out

# Fixed-seed chaos probe: inject a fault into every update phase and a
# 20% fault rate into a rolling rollout, then check that every abort
# rolled back (zero half-installed class tables) and the fleet converged.
# Runs with the heap verifier on, so a rollback that corrupted the heap
# would show up as a dirty abort.  Fixed seeds fire the same injections
# at the same points on every run, so a regression in the update
# transaction or the orchestrator's retry path fails deterministically;
# the convergence section runs with guard windows on, so retained update
# logs and the watchdog sit in the fault path too.
chaos-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe chaos | tee _build/chaos-smoke.out
	grep -q "half-installed tables:   0" _build/chaos-smoke.out
	grep -q "rate  20%: converged" _build/chaos-smoke.out

# Safety probe: looping / throwing / heap-corrupting transformers on all
# three apps must be contained by the fuel budget, the sandbox write
# guard and the heap verifier — a clean, re-verified rollback while the
# VM keeps serving.
safety-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe safety | tee _build/safety-smoke.out
	grep -q "gauntlet: 9/9 contained" _build/safety-smoke.out
	grep -q "0 dirty rollbacks" _build/safety-smoke.out
	grep -q "spurious failures: 0" _build/safety-smoke.out
	grep -q "window closed clean, retained log freed" _build/safety-smoke.out

# Guard-window probe: a forced revert replays the retained log, an open
# window costs <= 2% of steady-state throughput, and the semantically-bad
# miniweb 5.1.11 release is auto-reverted by the error-budget watchdog
# with zero dropped connections.
guard-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe guard | tee _build/guard-smoke.out
	grep -q "auto-reverted: guard tripped on app-errors" _build/guard-smoke.out
	grep -q "dropped connections: 0" _build/guard-smoke.out
	grep -q "guard overhead" _build/guard-smoke.out

# Decentralized-rollout probe: a 64-instance gossip rollout (no
# orchestrator) under a 10% control-plane drop plan must reach one
# epoch by local quorum reads alone, and the open-loop load it runs
# under must see zero dropped connections; the bad-update scenario must
# fence by trip-vote quorum and converge back to epoch 0.  The healthy
# rollout must count exactly 64 x 63 votes seen: every node learns every
# other node's vote once, so a tally that drops or double-counts a vote
# fails here.  The 16-node fence wave must gossip fewer bytes than the
# 64-node healthy rollout: its Con and trip votes ride the same tallies.
gossip-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe -- fleet --gossip \
	  | tee _build/gossip-smoke.out
	grep -q "CONVERGED in" _build/gossip-smoke.out
	grep -q "64 applied, .* 4032 votes seen" _build/gossip-smoke.out
	! grep -q "NOT CONVERGED" _build/gossip-smoke.out
	! grep -q "SLO FAIL" _build/gossip-smoke.out
	! grep -q "DID NOT FENCE" _build/gossip-smoke.out
	grep -q "central decisions:.*0 (all" _build/gossip-smoke.out
	grep -q "tripped and converged back to epoch 0" _build/gossip-smoke.out
	grep -q "fence-wave wire:.* -- LEANER" _build/gossip-smoke.out

# Stateful-workload probe: ministore's schema-migration ladder (field
# split, index re-key, value re-encoding) walks end to end on a loaded
# VM with the heap verifier green after every rung, a tripped guard
# window reverts a committed migration by inverse transformers, and a
# 16-instance gossip rollout of a migration converges with every
# instance heap green and zero dropped connections.
store-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe store | tee _build/store-smoke.out
	grep -q "1.0->1.1" _build/store-smoke.out
	grep -q "1.2->1.3" _build/store-smoke.out
	! grep -q "DIRTY" _build/store-smoke.out
	! grep -q "did not apply" _build/store-smoke.out
	! grep -q "expected a revert" _build/store-smoke.out
	grep -q "CONVERGED in" _build/store-smoke.out
	grep -q "16 of 16 instances green" _build/store-smoke.out
	grep -q "0 dropped in flight" _build/store-smoke.out

# Lazy-update probe: under config.lazy_update the commit pause must not
# scale with the heap — the 1M-record ministore migration must commit
# within 2x the 10k-record pause (records migrate on first access and by
# the background sweeper instead of inside the pause) — the 10k-record
# window, drained synchronously after its commit, must close with its
# row reading "drained": every record went through its sandboxed custom
# transformer (a refused write or trap would read ROLLBACK, a drain that
# never finishes would hang the target) — and a guarded lazy migration
# must revert cleanly when tripped mid-sweep.
lazy-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe -- store --lazy | tee _build/lazy-smoke.out
	grep -q "lazy pause flat: PASS" _build/lazy-smoke.out
	grep -Eq "^ *10000 .* drained$$" _build/lazy-smoke.out
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe -- guard --lazy | tee _build/lazy-guard-smoke.out
	grep -q "lazy pause flat: PASS" _build/lazy-guard-smoke.out

# Con-freeness probe: the §5.1.3 always-on-stack update (miniweb
# 5.1.2 -> 5.1.3 body-updates every run() loop) must apply on the
# first attempt with the static backward-compatibility analysis on,
# and must time out with it off — and the analysis must shrink the
# restricted set (6 changed methods, 5 proven, 1 left restricted), with
# the blocker diagnostics naming why each restricted frame has no proof.
confree-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe confree | tee _build/confree-smoke.out
	grep -Eq "^on +1 +5 " _build/confree-smoke.out
	grep -E "^on " _build/confree-smoke.out | grep -q " yes "
	grep -E "^off " _build/confree-smoke.out | grep -q "no (timeout)"
	grep -Eq "^off +6 " _build/confree-smoke.out

# Self-healing probe: a seeded kill plan takes instances down
# mid-rollout and the supervisor must restart, restore, catch up and
# readmit every corpse — full strength on one version with zero
# residual errors, a restarted ministore serving its pre-crash records
# bit-for-bit at the current schema, and the whole recovery transcript
# byte-identical across two runs of the same (plan, seed).
heal-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe -- fleet --heal \
	  | tee _build/heal-smoke.out
	grep -q "full strength:" _build/heal-smoke.out
	grep -q "residual errors:.*PASS" _build/heal-smoke.out
	grep -q "pre-crash records served bit-for-bit after recovery" _build/heal-smoke.out
	grep -q "byte-identical across runs" _build/heal-smoke.out
	! grep -q "FAIL" _build/heal-smoke.out

# Indirection-baseline probe: the steady-state overhead section must
# show the JDrums/DVM-style tax where it belongs — zero dereference
# checks on the Jvolve-mode miniweb row, a nonzero count on the
# indirection-mode row — and the lazily updated minimail row must have
# migrated at least one object on first touch; the design-space example
# must apply the same update through the baseline.
baseline-smoke: | _build
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe overhead \
	  | tee _build/baseline-smoke.out
	grep -Eq "^miniweb, Jvolve mode \(no checks\) +[0-9]+ +0$$" \
	  _build/baseline-smoke.out
	grep -Eq "^miniweb, indirection mode, no update in flight +[0-9]+ +[1-9][0-9]*$$" \
	  _build/baseline-smoke.out
	grep -Eq "^minimail, indirection mode, lazy update applied +[0-9]+ +\([1-9][0-9]* migrated\)$$" \
	  _build/baseline-smoke.out
	dune exec examples/baseline_comparison.exe | tee _build/baseline-example.out
	grep -q "objects migrated on first touch" _build/baseline-example.out

# App-example probe: the three live-update walkthroughs drive their
# server under the scripted workload across the update — miniweb must
# serve with zero protocol errors, minimail must keep answering SMTP
# after the update, and the FTP session must finish on the updated
# server with zero errors.
examples-smoke: | _build
	dune exec examples/web_live_update.exe | tee _build/examples-web.out
	grep -q "with 0 protocol errors" _build/examples-web.out
	dune exec examples/email_update.exe | tee _build/examples-email.out
	grep -Eq "after update: .* SMTP requests" _build/examples-email.out
	dune exec examples/ftp_update.exe | tee _build/examples-ftp.out
	grep -q "(0 errors: true)" _build/examples-ftp.out

# Benchmark-workload probe: one short run of the serve workload (miniweb
# walks its update ladder under load), one of the Table 1 migrate
# workload (default transformers run as copy plans), one of the lazy
# ministore migration (custom transformers on the interpreter), and one
# each of the two fleet workloads (a healed rolling rollout over shared
# builds, and a gossiped one).  A run whose output check fails (e.g.
# "every Change object transformed", "sampled objects hold", "rollout
# ok", "no errors after the storm", convergence) exits non-zero and
# fails the target.
perf-smoke:
	dune exec perf/main.exe -- run serve --seed 1 --seconds 1
	dune exec perf/main.exe -- run migrate --seed 1 --seconds 1
	dune exec perf/main.exe -- run store-lazy --seed 1 --seconds 1
	dune exec perf/main.exe -- run fleet-heal --seed 1 --seconds 1
	dune exec perf/main.exe -- run fleet-gossip --seed 1 --seconds 1

# Table 1 correctness probe: the quick Table 1 run (two heap sizes, every
# updated fraction) checks each cell after its update — sampled Change
# objects hold a=i b=2i c=3i d=0, sampled NoChange objects are
# unchanged, and the largest cell's heap verifies.  A failed check makes
# the bench exit non-zero and fails the target; no timing is checked.
table1-smoke:
	JVOLVE_BENCH_QUICK=1 dune exec bench/main.exe table1

# Where a workload's time goes: a 15 s seed-1 run of benchmark workload W
# (default serve) under gprofng's clock profiler, recorded into
# _build/profile-W.er, then the top functions by exclusive CPU time.
# Needs gprofng (GNU binutils); no CI job runs it.
W ?= serve

profile:
	dune build perf/main.exe
	rm -rf _build/profile-$(W).er
	gprofng collect app -p 1 -o _build/profile-$(W).er \
	  _build/default/perf/main.exe --workload $(W) --seed 1 --seconds 15 \
	  --trace 0
	gprofng display text -functions _build/profile-$(W).er | head -40

# The smoke targets tee their output into _build/, which a fresh
# checkout does not have until dune makes it: tee opens its file first.
_build:
	mkdir -p $@

clean:
	dune clean
