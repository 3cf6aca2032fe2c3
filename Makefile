# Verification entry points. `make verify` is the full pre-merge gate:
# gofmt cleanliness, tier-1 build+test, go vet, the coverage floors, and the
# race-detector pass over every package (the worker-pool harness and the
# suite runners are exercised under -race by their own tests).

GO ?= go
GOFMT ?= gofmt

.PHONY: build test fmt vet race verify cover bench bench-compare bench-gate fuzz golden diffcheck serve-smoke paper paper-smoke examples inline-check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Formatting gate: fail (and list the offenders) if any tracked Go file is
# not gofmt-clean.
fmt:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Race/determinism tier: the whole tree under the race detector. The
# parallel harness tests (TestParallelMatchesSerial, TestGoldenTables,
# TestRunnerSafeForConcurrentCallers, pool tests) all fan work out across
# goroutines, so this catches data races in the pool, the suite runners,
# and the per-job simulation state. The second pass re-runs the
# truly-concurrent tier — the SPSC ring stress/fuzz seeds, the cplatch
# monitor determinism pin, concurrent profile runs sharing
# engine.RunProfile's idle-session list, and two engine.RunSweep sweeps with
# cplatch consumers sharing the idle sessions and spare modules — a second
# time for extra schedule diversity on the lock-free and locked paths.
# -timeout 30m: the experiments package alone needs ~8 minutes under the
# race detector on a single-CPU box, too close to Go's 10m default.
race:
	$(GO) test -race -timeout 30m ./...
	$(GO) test -race -timeout 30m -count=2 \
		-run 'TestConcurrentStress|TestBackpressureStalls|FuzzRingSPSC|TestConcurrentDeterminismPin|TestRunProfileConcurrent|TestRunSweepConcurrent' \
		./internal/ring ./internal/platch ./internal/enginetest

verify: fmt test vet inline-check cover race diffcheck serve-smoke paper-smoke examples

# Inlining gate: build the hot-loop packages with -gcflags=-m and fail
# unless the compiler inlines every call of the page map's accessors in the
# shadow (Lookup, Get, Writable) and of the shadow readers the experiment,
# generator, module and DIFT loops call (MustTaintedAt, DomainTainted,
# RangeTainted). go1.24 inlines a shadow method that calls into package mem
# only into packages that import shadow directly, so an unrelated import
# change can cost the catalog pass a call per shadow access.
inline-check:
	$(GO) run ./tools/inline-check

# Example tier: run every program under examples/ (each finishes in under a
# second) and fail on the first non-zero exit. `go build ./...` only compiles
# them; running them catches what an example checks about itself, such as
# parallelmonitor exiting 1 when its hijack goes undetected.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || { echo "$$d exited non-zero"; exit 1; }; \
	done

# Paper-grade reproduction: run the default experiment grid (repeats,
# backend/sampling/geometry sweeps, catalog experiments) into a
# timestamped paper_runs/<ts>/ tree and analyze it — per-cell
# mean/stddev/95%-CI tables as Markdown and LaTeX, plus an appended
# BENCH_history.json headline entry. See EXPERIMENTS.md for the grid
# schema and the run-tree layout.
paper:
	$(GO) run ./cmd/latch-paper run -grid experiments.json -analyze

# Paper-pipeline smoke tier: a miniature 2-cell, 2-repeat grid run twice,
# asserting the deterministic csv/ trees are byte-identical between runs
# and that the analyzer round-trips (summary tables rendered, history
# appended). Seconds, not minutes — wired into `make verify`.
paper-smoke:
	$(GO) run ./cmd/latch-paper smoke

# Service smoke tier: build the real latch-serve binary, boot it, push a
# clean program job, a job tainting the top page of the address space and
# the clean job again (same result), a body one byte over the 1 MiB job cap
# to each job endpoint (413, never accepted) and the clean job again, a wild
# jump into never-mapped memory (an unmapped-fetch error line, not a
# deadline) and the clean job again, a control-flow hijack, and a
# workload-replay job through the HTTP surface, check the in-service canary
# agreed with the reference stack, and SIGTERM it to exercise graceful
# drain.
serve-smoke:
	$(GO) run ./tools/serve-smoke

# Differential smoke tier: every registered backend against the
# byte-precise DIFT reference over 200 seeded random programs plus the
# checked-in reproducer corpus (testdata/diffcheck), and the calibrated
# stream determinism/soundness checks. Deterministic: two runs with the
# same seed produce byte-identical logs. Longer hunts: see `make fuzz`
# or `go run ./cmd/latch-fuzz -budget 60s -corpus testdata/diffcheck`.
diffcheck:
	$(GO) run ./cmd/latch-fuzz -seed 1 -cases 200 -corpus testdata/diffcheck

# Coverage gates: every backend, the experiment harness, and the CLIs sit
# on internal/engine, every taint decision flows through the declarative
# internal/policy layer, guest memory and shadow tags run on internal/mem's
# page map, internal/shadow is the byte-precise taint state the coarse
# tables are derived from, internal/vm is the interpreter, internal/cache
# models the TLB and taint caches every coarse check goes through,
# internal/workload generates every replayed stream, internal/platch is
# every P-LATCH machine (the filter and queue models, the concurrent
# backend, and the two-core co-simulation of real programs),
# internal/latch is the module itself, including the reconfiguration
# recycled sessions run through, internal/dift is the precise engine
# whose taint register file the fast loop runs against, internal/cosim
# drives every backend over real programs, and internal/serve recycles
# machine stacks for every served job — each must hold statement coverage
# at or above 85%.
COVER_PKGS = policy mem engine shadow vm cache workload platch latch dift cosim serve

cover:
	@for p in $(COVER_PKGS); do \
		$(GO) test -coverprofile=/tmp/$$p.cover ./internal/$$p || exit 1; \
		total="$$($(GO) tool cover -func=/tmp/$$p.cover | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}')"; \
		echo "internal/$$p coverage: $$total%"; \
		awk "BEGIN { exit !($$total >= 85) }" || \
			{ echo "internal/$$p coverage $$total% is below the 85% floor"; exit 1; }; \
	done

# Root-package benchmarks, plus the committed perf artifacts: the
# observability-overhead report (BENCH_observability.json) and the hot-path
# report (BENCH_hotpath.json: CPU.Step / shadow.Set / end-to-end
# experiment pass against the pre-overhaul baselines). The cplatch
# per-event cost is perfbench's cplatch_ns_per_event. The selective-tracing
# frontier is pinned by internal/experiments/testdata/sampling.golden.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .
	$(GO) test ./internal/latch -run TestWriteObservabilityBench \
		-observability-bench-out $(CURDIR)/BENCH_observability.json
	$(GO) test . -run TestWriteHotpathBench \
		-hotpath-bench-out $(CURDIR)/BENCH_hotpath.json

# Benchstat-friendly re-run of the hot-path benchmarks with pinned count
# and benchtime, for diffing against the committed BENCH_hotpath.json:
#
#   make bench-compare > /tmp/new.txt        # on your branch
#   git stash && make bench-compare > /tmp/old.txt && git stash pop
#   benchstat /tmp/old.txt /tmp/new.txt      # if benchstat is installed
#
# The committed JSON holds the absolute numbers; this target produces the
# standard Go benchmark format those numbers came from.
bench-compare:
	$(GO) test -run='^$$' -count=10 -benchtime=200ms -benchmem \
		-bench='BenchmarkCPUStep$$' ./internal/vm
	$(GO) test -run='^$$' -count=10 -benchtime=200ms -benchmem \
		-bench='BenchmarkShadowStore$$|BenchmarkShadowReset$$' ./internal/shadow
	$(GO) test -run='^$$' -count=10 -benchtime=200ms -benchmem \
		-bench='BenchmarkMemoryLoadWord$$|BenchmarkMemoryStoreWord$$|BenchmarkMemoryReset$$' ./internal/mem
	$(GO) test -run='^$$' -count=5 -benchtime=1x \
		-bench='BenchmarkExperimentsSerial$$' .

# Hot-path regression gate: re-run the benchmarks behind the committed
# BENCH_hotpath.json and fail on a significant (>25%) slowdown against the
# committed numbers, benchstat-style (best of N, since noise is one-sided).
# Required for any change touching the interpreter hot path (internal/vm,
# internal/isa's decode cache, internal/shadow, internal/dift): run it
# before and after the change, and re-record the artifact with `make bench`
# only for intentional, explained shifts. Also re-asserts 0 allocs/op on
# CPU.Step, the fast loop, and shadow.Set.
bench-gate:
	$(GO) run ./tools/bench-gate -baseline $(CURDIR)/BENCH_hotpath.json

# Short fuzz passes: the shared page map (FuzzPageTable runs random
# lookups, writes, aliases, uncounted Mapped tests, resets and page-set
# operations against map models), the cache model (FuzzCacheLRU runs Access, Probe,
# Invalidate, Flush and ForEach on a 128-way and a 4x4 cache, over blocks
# that share way-hint slots, against a plain reference LRU), the LA32 assembler/decoder round-trip properties
# (FuzzAssembleDecode also cross-checks the decode cache against direct
# Decode, through invalidation and refill), the interpreter differential
# (FuzzFastLoopVsStep runs raw instruction words through the fast loop and
# through Step, under classical and PIFT propagation, and compares every
# piece of state, register taint and the TRF included; its seeds include
# wild jumps into unmapped memory, taint resident in memory, so guarded mode
# runs, and tainted registers the loop runs past: a checksum loop over
# tainted file bytes, a strf-tainted register overwritten before a jr
# through it, and a jr through one still tainted), the stream generator's
# decision thresholds (FuzzThreshold checks that comparing an Int63 draw
# with threshold(p) decides as math/rand's Float64() < p does, for any
# probability and draw), the shadow's copy-on-write aliases (FuzzAliasPage
# checks that a page aliased twice with AliasPage, then written by random
# Sets and SetRanges through either alias or its pattern page, leaves the
# tags, counters and ever-tainted pages, and reports to the watchers, what
# per-byte-set copies taking the same writes do, at every domain size), the
# assembler and decoder on
# arbitrary input (FuzzAssemble: any source assembles or is rejected
# without a panic, with every label inside the image; FuzzDecode: any word
# decodes or is rejected, and a decoded instruction re-encodes to a word
# that decodes the same), the policy's JSON round trip
# (FuzzPolicyRoundTrip), the lock-free SPSC ring against a mutex-guarded
# model under random geometry, producer flushes and consumer batches
# (FuzzRingSPSC), then the backend-equivalence fuzzer, which drives the
# differential checker from random case seeds. Each pattern is anchored:
# go test refuses to fuzz when -fuzz matches more than one target, and
# FuzzAssemble alone would also match FuzzAssembleDecode.
fuzz:
	$(GO) test ./internal/mem -run='^$$' -fuzz='^FuzzPageTable$$' -fuzztime=10s
	$(GO) test ./internal/cache -run='^$$' -fuzz='^FuzzCacheLRU$$' -fuzztime=10s
	$(GO) test ./internal/isa -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=10s
	$(GO) test ./internal/isa -run='^$$' -fuzz='^FuzzAssembleDecode$$' -fuzztime=10s
	$(GO) test ./internal/isa -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s
	$(GO) test ./internal/vm -run='^$$' -fuzz='^FuzzFastLoopVsStep$$' -fuzztime=10s
	$(GO) test ./internal/workload -run='^$$' -fuzz='^FuzzThreshold$$' -fuzztime=10s
	$(GO) test ./internal/shadow -run='^$$' -fuzz='^FuzzAliasPage$$' -fuzztime=10s
	$(GO) test ./internal/policy -run='^$$' -fuzz='^FuzzPolicyRoundTrip$$' -fuzztime=10s
	$(GO) test ./internal/ring -run='^$$' -fuzz='^FuzzRingSPSC$$' -fuzztime=10s
	$(GO) test ./internal/diffcheck -run='^$$' -fuzz='^FuzzBackendEquivalence$$' -fuzztime=30s

# Regenerate the experiment golden tables (and the telemetry snapshot that
# rides along with them) after an intentional model change.
golden:
	$(GO) test ./internal/experiments -run 'TestGoldenTables|TestGoldenMetricsSnapshot' -update
