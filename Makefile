# Build/verify entry points for the ASRank reproduction.

CARGO ?= cargo

.PHONY: all build test test-engine lint lint-strict audit bench-lock bench-test verify serve-smoke stage-report clean

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
# step definitions (bit-identical inference at both parallelism levels;
# each step the oracle skips counts zero while the steps before it count
# as in the full run), the delta session's frames to a cold run
# over the same samples, the three cone stages to their oracles (the
# HashSet recursive closure and the definitional observed cones), the
# blocked pair merge to sort + dedup at every block width, the arena
# forms of S2/S3 to their path-slice definitions, the one-pass S1
# cleaner and its flat output and frame to the composition it folds,
# S6's one-sort evidence to the two tuple sorts it replaced, in drawn,
# shuffled and prefix-major sample order (the monolithic oracle shares
# S1 and S6, so only these tests see them), the hash-counted S9
# adjacency table and observed link list to the packed sort +
# run-length form they replaced, S5's memo of agreeing path tails to
# the path-slice walk under pre-classified, conflicting links,
# the sharded hash-then-sort arena to the sort + run-length dedup it
# replaced, the RIB readers' per-frame
# decoder to the record-tree decode (both readers share the decoder, so
# only this oracle sees it), the sort-and-stream RIB encoder to the
# record-tree encode it replaced, bgpsim's unsorted frontier and bucket
# drains to the sorted drain and to the (hash, id) argmin of each
# route's parent, bgpsim's demand-driven closure to the full tree (the
# closure suite `target_routes_match_the_full_tree` on random target
# subsets, and `sim::tests::leaky_paths_equal_the_full_tree` on every
# path `simulate` emits at leak rate 0.05), the BGP4MP update writer to
# the per-path BTreeMap writer it replaced (in `encode_oracle`), plus
# the cache invalidation/reuse counters (the disk
# cache's cold/warm identity, damaged-frame fallback and a new prefix
# table rerunning only the cones), and the
# thread-invariance suites of the one fork-join helper
# (`Parallelism::map_ranges`) and its callers: the helper's own tests,
# the engine's and cones' 1-vs-N-thread determinism, and bgpsim's
# 1-vs-4-thread simulation.
test-engine:
	$(CARGO) test -p asrank-types --lib parallel::
	$(CARGO) test -p asrank-core --test parallel_determinism
	$(CARGO) test -p bgp-sim --lib sim::
	$(CARGO) test -p asrank-core --test engine_equivalence
	$(CARGO) test -p asrank-core --test delta_equivalence
	$(CARGO) test -p asrank-core --test cache_persist
	$(CARGO) test -p asrank-core --test cone_equivalence
	$(CARGO) test -p asrank-core --test blocked_sweep_equivalence
	$(CARGO) test -p asrank-core --lib -- arena_oracle one_pass_oracle sort_dedup_oracle vp_providers_oracle link_counts_oracle topdown_arena_matches
	$(CARGO) test -p mrt-codec --test parallel_ingest
	$(CARGO) test -p mrt-codec --test encode_oracle
	$(CARGO) test -p bgp-sim --test reference_propagation
	$(CARGO) test -p asrank-core engine::

# Source-level determinism/robustness checks: the file-local rules
# L001–L005 plus the cross-file semantic passes L006–L010 (fingerprint
# coverage, unsafe/SAFETY contracts, atomics pairing, codec kind
# exhaustiveness, a non-test caller for every library pub item, with
# benchmark/src and examples/ read as callers). Exit 1 on any
# violation; annotate intentional
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

# The benchmark package's own unit tests (verdicts, JSON, statistics):
# the only tests of measurement code. Builds into benchmark/target,
# which is ignored, so no tracked file changes.
bench-test:
	$(CARGO) test --offline --locked --manifest-path benchmark/Cargo.toml

# The full pre-merge gate: compile, test (workspace tests include the
# engine-, delta- and cone-equivalence suites; test-engine re-runs them
# explicitly so a failure is named in the gate output), strict source
# lint (all ten rules + the annotation audit), semantic audit,
# benchmark lock check and the benchmark's unit tests.
verify: build test test-engine lint-strict audit bench-lock bench-test

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
