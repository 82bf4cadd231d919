# Build/verify/bench entry points for the ASRank reproduction.

CARGO ?= cargo
# Absolute: cargo runs bench binaries with cwd at the package root, not
# the workspace root, so a relative path would scatter the lines files.
BENCH_LINES := $(CURDIR)/target/criterion-lines.json
BENCH_OUT ?= BENCH.json
# The benches wired into the perf snapshot (the remaining benches —
# clique, mrt, baselines, trie, stability — run via `cargo bench` as usual).
BENCHES := cones sanitize pipeline propagation ingest warm_vs_cold serve scale delta

.PHONY: all build test test-engine lint lint-strict audit bench-lock verify bench bench-cones bench-ingest bench-serve bench-scale bench-tenx bench-delta profile-scale serve-smoke stage-report clean

all: build

# --workspace: the root manifest is itself a package, so a bare
# `cargo build` would skip sibling bins (notably the asrank CLI) and
# leave stale binaries under target/release.
build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test --workspace

# Staged-engine acceptance: property tests pinning the memoized stage
# graph to the arena-free monolithic oracle, which runs the path-slice
# step definitions (bit-identical inference at both parallelism levels
# and under every ablation), the delta session's frames to a cold run
# over the same samples, plus the cache invalidation/reuse counters.
test-engine:
	$(CARGO) test -p asrank-core --test engine_equivalence
	$(CARGO) test -p asrank-core --test delta_equivalence
	$(CARGO) test -p asrank-core engine::

# Source-level determinism/robustness checks: the file-local rules
# L001–L005 plus the cross-file semantic passes L006–L009 (fingerprint
# coverage, unsafe/SAFETY contracts, atomics pairing, codec kind
# exhaustiveness). Exit 1 on any violation; annotate intentional
# exceptions with
#   // lint: allow(<slug>, <reason>)
lint:
	$(CARGO) run --release -p asrank-lint -- --root $(CURDIR)

# Everything `lint` checks, plus the L000 audit of the annotations
# themselves: every allow must name a known slug and carry a reason.
# This is the gate `verify` runs.
lint-strict:
	$(CARGO) run --release -p asrank-lint -- --root $(CURDIR) --strict

# Semantic invariant audit over a small end-to-end fixture: generate →
# simulate → infer, then grade the inferred relationships (CSR shape,
# clique p2p, cycles, cone containment/agreement, valley-freeness).
# Seed 9 infers valley-free on the current generator stream (the tiny
# 8-VP audit fixture is quality-sensitive: many seeds exceed the 5%
# valley threshold on visibility alone; re-scan if the stream changes —
# kept in lockstep with cli/tests/toolchain.rs).
audit: build
	@tmp=$$(mktemp -d); \
	./target/release/asrank generate --scale tiny --seed 9 --out $$tmp/topo && \
	./target/release/asrank simulate --topo $$tmp/topo --vps 8 --seed 9 --out $$tmp/rib.mrt && \
	./target/release/asrank infer --rib $$tmp/rib.mrt --out $$tmp/as-rel.txt && \
	./target/release/asrank audit --rels $$tmp/as-rel.txt --rib $$tmp/rib.mrt; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# The benchmark package (benchmark/) builds with --locked against its
# own Cargo.lock, which pins every crate it reaches, vendored stand-ins
# included. A dependency change in those crates that the lock does not
# match makes cargo refuse the benchmark; this catches it before merge.
# It only reads the lock, never writes it.
bench-lock:
	$(CARGO) metadata --offline --locked --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

# The full pre-merge gate: compile, test (workspace tests include the
# engine- and delta-equivalence suites; test-engine re-runs them
# explicitly so a failure is named in the gate output), strict source
# lint (all nine rules + the annotation audit), semantic audit,
# benchmark lock check.
verify: build test test-engine lint-strict audit bench-lock

# Run the wired criterion benches with JSON-line capture, then assemble
# the lines into a single $(BENCH_OUT) snapshot (medians + derived
# speedup ratios). Override the output name per PR:
#   make bench BENCH_OUT=BENCH_PR1.json
bench:
	mkdir -p target
	rm -f $(BENCH_LINES)
	for b in $(BENCHES); do \
		CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench $$b || exit 1; \
	done
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)

# Cone benches only, gated: assemble a fresh snapshot from the `cones`
# group and diff its derived speedup ratios against the PR1 baseline,
# failing if the recursive-cone speedup regresses below 4.0x.
bench-cones:
	mkdir -p target
	rm -f $(BENCH_LINES)
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench cones
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR1.json

# Ingest + cache benches only, gated: MRT decode MB/s (streaming reader
# vs the parallel byte-range reader) and the warm-vs-cold full pipeline,
# checked against the PR5 acceptance floors (parallel >= 2.0x at 4
# threads, warm >= 5.0x over cold).
bench-ingest:
	mkdir -p target
	rm -f $(BENCH_LINES)
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench ingest
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench warm_vs_cold
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR5.json

# Serve-tier bench only, gated: zero-copy mapped query rates vs the
# owned-decode baselines plus the mapped-vs-owned peak-RSS comparison,
# checked against the PR6 acceptance floors (>=1M relationship
# lookups/s, >=500k cone-membership checks/s on one core, mapped peak
# RSS never above owned).
bench-serve:
	mkdir -p target
	rm -f $(BENCH_LINES)
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench serve
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR6.json

# InternetScale tier, gated: cold infer + arena build at 8k/16k/42k
# with the 42k peak RSS measured in a child process, the blocked pair
# merge vs the full-width counting sort at 42k, plus the micro-size
# cone/pipeline benches so the PR5 floors and the elems/sec trajectory
# are checked in the same snapshot. Acceptance (PR8): blocked merge
# >= 1.3x, 42k RSS under the 8 GiB ceiling, trajectories within 70% of
# the baseline where the baseline has the tier (new tiers warn only).
# Micro benches run BEFORE the 42k tier: the heavy tier's sustained
# load depresses whatever runs after it by ~30% on this host (thermal
# / memory pressure), which would fail the micro floors spuriously.
bench-scale:
	mkdir -p target
	rm -f $(BENCH_LINES)
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench pipeline
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench cones
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench scale
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR5.json

# The tenx tier (~400k ASes), gated: the scale bench with
# ASRANK_SCALE_TENX=1 also records infer/tenx, arena_build/tenx, and
# the tenx child-process peak RSS. Acceptance (PR10): the tenx cold
# infer retains >= 0.5x the 42k kelems/s and peaks under the 8 GiB
# ceiling (scale_rss_headroom gates its worst tier). Skipped with a
# notice when the host has less than 8 GiB of RAM — the tier's working
# set would swap and the numbers would be fiction.
bench-tenx:
	@mem_kb=$$(awk '/MemTotal/ {print $$2}' /proc/meminfo 2>/dev/null || echo 0); \
	if [ "$$mem_kb" -lt 8388608 ]; then \
	  echo "bench-tenx: skipped (host has $$mem_kb kB RAM, tier needs 8 GiB)"; exit 0; \
	fi; \
	mkdir -p target && rm -f $(BENCH_LINES) && \
	CRITERION_JSON=$(BENCH_LINES) ASRANK_SCALE_TENX=1 $(CARGO) bench -p asrank-bench --bench scale && \
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench delta && \
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT) && \
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR9.json

# Per-stage wall_ns share table for one scale tier: runs the staged
# engine under `report stage-report` and prints each stage's share of
# the engine total — the profile that directed the PR10 tenx work.
#   make profile-scale [SCALE=tiny|small|medium|internet|tenx] [SEED=42]
profile-scale:
	@$(CARGO) run --release -p asrank-bench --bin report -- stage-report --scale $(SCALE) --seed $(SEED) \
	| awk '/"stage":/ { \
	    match($$0, /"stage": "[^"]*"/); s = substr($$0, RSTART + 10, RLENGTH - 11); \
	    match($$0, /"wall_ns": [0-9]+/); w = substr($$0, RSTART + 11, RLENGTH - 11) + 0; \
	    ns[s] = w; total += w } \
	  END { \
	    printf "%-22s %10s %7s\n", "stage", "wall_ms", "share"; \
	    sort = "sort -k2 -rn"; \
	    for (s in ns) printf "%-22s %10.1f %6.1f%%\n", s, ns[s] / 1e6, 100 * ns[s] / total | sort; \
	    close(sort); \
	    printf "%-22s %10.1f\n", "engine total", total / 1e6 }'

# Incremental tier, gated: delta refresh after 1%/5%/20% churn batches
# vs the cold pipeline at the 8k tier. Acceptance (PR9): the
# multiplicity-preserving 1%-churn refresh must cost at most 10% of a
# cold run (delta_over_cold_ratio/1pct <= 0.10). PR10 tightened the
# structural-churn bound: the 20% mixed-churn refresh must stay at or
# under a cold rebuild (delta_over_cold_ratio/20pct <= 1.0); 5% stays
# recorded ungated.
bench-delta:
	mkdir -p target
	rm -f $(BENCH_LINES)
	CRITERION_JSON=$(BENCH_LINES) $(CARGO) bench -p asrank-bench --bench delta
	$(CARGO) run --release -p asrank-bench --bin report -- bench-json $(BENCH_LINES) $(BENCH_OUT)
	$(CARGO) run --release -p asrank-bench --bin report -- bench-check $(BENCH_OUT) BENCH_PR9.json

# End-to-end smoke of the serve tier: warm a cache with the CLI
# (generate -> simulate -> infer --cache-dir), start `asrank serve`,
# drive a query batch through `asrank query --connect`, and cross-check
# the daemon's relationship answers against the as-rel file `infer`
# wrote from the very same cache. The daemon is always killed.
serve-smoke: build
	@tmp=$$(mktemp -d); rc=1; \
	./target/release/asrank generate --scale tiny --seed 7 --out $$tmp/topo && \
	./target/release/asrank simulate --topo $$tmp/topo --vps 8 --seed 7 --out $$tmp/rib.mrt && \
	./target/release/asrank infer --rib $$tmp/rib.mrt --cache-dir $$tmp/cache --out $$tmp/as-rel.txt && \
	{ ./target/release/asrank serve --rib $$tmp/rib.mrt --cache-dir $$tmp/cache --port 46464 --poll-ms 0 & \
	  srv=$$!; sleep 1; \
	  awk -F'|' '/^\#/ { next } { print "rel", $$1, $$2 }' $$tmp/as-rel.txt > $$tmp/queries.txt; \
	  awk -F'|' '/^\#/ { next } $$3 == -1 { print "customer" } $$3 == 0 { print "peer" } $$3 == 2 { print "sibling" }' $$tmp/as-rel.txt > $$tmp/expect.txt; \
	  ./target/release/asrank query --connect 127.0.0.1:46464 < $$tmp/queries.txt > $$tmp/got.txt; \
	  qrc=$$?; kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; \
	  if [ $$qrc -eq 0 ] && [ -s $$tmp/expect.txt ] && cmp -s $$tmp/expect.txt $$tmp/got.txt; then \
	    echo "serve-smoke: $$(wc -l < $$tmp/got.txt) daemon answers match as-rel.txt"; rc=0; \
	  else \
	    echo "serve-smoke: FAIL (query rc=$$qrc)"; diff $$tmp/expect.txt $$tmp/got.txt | head; rc=1; \
	  fi; }; \
	rm -rf $$tmp; exit $$rc

# Per-stage instrumentation over a generated scenario: wall time, item
# counts, artifact sizes, and cache hit/miss counters for every engine
# stage, as deterministic-shape JSON on stdout.
#   make stage-report [SCALE=tiny|small|medium|internet] [SEED=42]
SCALE ?= small
SEED ?= 42
stage-report:
	$(CARGO) run --release -p asrank-bench --bin report -- stage-report --scale $(SCALE) --seed $(SEED)

clean:
	$(CARGO) clean
