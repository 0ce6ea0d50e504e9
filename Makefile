GO ?= go
FUZZTIME ?= 15s

.PHONY: build build-cross loc test vet race verify verify-race benchmark benchmark-smoke bench bench-smoke bench-allocs bench-update bench-stream snapshot-smoke report fmt fmt-check fuzz

build:
	$(GO) build ./...

# build-cross type-checks what this machine never runs: the non-unix
# build tags (the dataset package carries a !unix mmap stub,
# mmap_other.go, and nothing may grow a silent unix-only dependency
# outside it) and a big-endian target, where the snapshot's copying
# decode path is the only one. Compile-only — no tests run.
build-cross:
	GOOS=windows $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	GOOS=linux GOARCH=s390x $(GO) build ./...

# loc prints non-test, non-testdata Go lines per package and in total:
# the unit the ROADMAP's simplification items are denominated in.
# benchmark/ gets its own total because a PR outside it may not touch
# it. Raw lines (wc -l), so comment and blank lines count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 wc -l \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1; if (d !~ /^\.\/benchmark/) o += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d total\n%7d total outside benchmark/\n", t, o }'

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# verify-race is the dynamic complement of the static gate: the
# GOMAXPROCS parity, determinism, and concurrent-access tests — what holds
# the par.Map/ChunkMap kernels to "any GOMAXPROCS, same answer" (each
# parity test sets the counts it compares and restores the old one), and
# the readers sharing one build-once product — run under the race
# detector. TestLazy is the build-once holder of every derived
# product; Concurrent selects TestWorkloadConcurrentAll (four callers
# sharing one Workload, as botserve does), TestWarmServerConcurrentReads
# (eight clients cycling the explore routes on one warm server, each body
# checked against a fresh server's), the fit-slot sweep from eight
# goroutines (TestDispersionIndexFitSlotConcurrent: slots replaced while
# read) and the cluster's readers-during-shard-churn test; TestSnapshot also selects the
# analyzer's generation-published snapshot tests (one writer against
# eight polling readers); TestFanOut is the shard fan-out on one core;
# TestHoldDelaysClose and TestCloseWaitsForHandlers are the store hold
# that Close waits for, alone and under four serving handlers.
# -count=2 shakes out once-per-process caching effects (memo.Lazy
# products, memoized views).
verify-race:
	$(GO) test -race -count=2 \
		-run 'TestMap|TestChunk|Parallel|Concurrent|Deterministic|TestParity|TestStoreAccessors|TestStoreSummaryWorkers|TestBotDense|TestDispersionIndex|TestIngest|TestSnapshot|TestAnalyzerIngested|TestLazy|TestFanOut|TestHoldDelaysClose|TestCloseWaitsForHandlers' \
		./internal/par/ ./internal/memo/ ./internal/dataset/ ./internal/core/ ./internal/stream/ ./internal/synth/ ./internal/experiments/ ./internal/cluster/ ./internal/serve/

# benchmark runs the repo's benchmark as the pipeline does (BENCHMARK.json:
# four workloads, eight end-to-end metrics; ~30 s a workload). It is the
# only harness whose numbers a PR may claim. benchmark-smoke drives the
# same four workloads at scale 0.05 for two passes: it checks the output
# digests and every code path in a couple of seconds and measures nothing.
benchmark:
	bash benchmark/run.sh --workload all

benchmark-smoke:
	$(GO) run ./benchmark -smoke -workload all

# verify is the full pre-merge gate: build, stock vet, formatting, the
# race-enabled test suite (the project's static gate, internal/gate, is
# one of its packages), the package examples again on one core (their
# pinned outputs hold at any GOMAXPROCS), and the benchmark's smoke run.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmt-check
	$(GO) test -race ./...
	GOMAXPROCS=1 $(GO) test -count=1 -run '^Example' .
	$(MAKE) benchmark-smoke

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# bench-smoke compiles and single-shots every benchmark so they cannot
# bit-rot; -short skips the fixed-scale (scale 1/10) kernel benchmarks.
# internal/botnet's BenchmarkFormation (the generator's formation
# kernels over a scale-1 Dirtjumper pool) runs too.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -short -run=^$$ . ./internal/botnet

# bench-allocs runs the hot-kernel micro-benchmarks with -benchmem and
# fails when any exceeds its budget in bench_thresholds.json (see
# cmd/benchguard). This is the CI gate against allocation regressions in
# the ARIMA fitter (the report's ARIMA(1,0,0), an exact least-squares
# fit with no residual buffer, and the general ARMA path), the dispersion scan, the cross-shard merge, the
# snapshot fan-out after an ingest (120 held days: a day series sent or
# merged whole again shows here), the BSCW
# payload walks (encode nothing, decode what the message holds: a closure
# per field shows here, not in live_sharded), the columnar store build, the snapshot open (a per-row decode coming back
# is megabytes; the budget is one), the JSONL feed codec, the live
# snapshot (the first read of a generation, and every later one), the
# report kernel that must stay in dense-id space (Ext: Defense) and Ext:
# Load over its held fold, §V's collaboration and chain detectors
# (BenchmarkCollaborations, BenchmarkChains: members held as store rows, so
# an attack record built per member shows here), at the benches' default
# scale 0.1, and one warm cycle of
# botserve's explore routes (every answer a held product: a product
# rebuilt per request, or an ARIMA refit, shows there). Each alternative
# selects all of a benchmark's sub-benchmarks; the /scale1 segment belongs
# to the last alternative only.
BENCH_ALLOC_PATTERN := 'BenchmarkFit$$|BenchmarkFitAR1$$|BenchmarkAutoFit$$|BenchmarkDispersionSeries$$|BenchmarkCollaborations$$|BenchmarkChains$$|BenchmarkMergeSnapshots$$|BenchmarkFrontendSnapshotAfterIngest$$|BenchmarkWireCodec$$|BenchmarkNewStore$$|BenchmarkReadSnapshot$$|BenchmarkDecodeJSONL$$|BenchmarkAnalyzerSnapshot$$|BenchmarkExtDefense$$|BenchmarkExtLoad$$|BenchmarkExploreCycle$$|BenchmarkWriteJSONL$$/scale1$$'
BENCH_ALLOC_PKGS := ./internal/timeseries ./internal/core ./internal/cluster ./internal/stream .
bench-allocs:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json
	@rm -f bench_allocs.out

# bench-update re-measures the budgeted kernels and regenerates
# bench_thresholds.json with headroom (see benchguard -update). Run after
# a deliberate allocation-profile change, then review the diff and keep
# only the budgets that went down: budgets are never raised.
# BenchmarkExtLoad reads the held whole-feed fold (observed 3.6 KB, 45
# allocs): a load sweep per call costs ~0.4 MB and shows there.
# BenchmarkExploreCycle's bytes are 512 KiB by hand (observed 0.46 MB;
# forecasts per /predict spend 0.55 MB, rebuilt products 1.9 MB).
# BenchmarkCollaborations' allocs are 1,024 by hand (observed 607 at
# GOMAXPROCS=2; the target fan-out adds about 12 a P, 772 at 16; 2,128 when
# every member was an attack record).
# BenchmarkFitAR1's bytes are 96 KiB by hand (observed 66 KB, the one
# differenced copy of its 8,000 points): a residual buffer coming back
# adds 64 KB, which the doubled headroom would hide. Its 7 allocs are 3
# observed (that copy, the model, its AR slice) plus the minimum slack: an
# iterative search coming back allocates per step.
bench-update:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json -update
	@rm -f bench_allocs.out

# bench-stream records streaming ingest throughput (attacks/sec).
bench-stream:
	$(GO) test -bench='BenchmarkStream(Ingest|Snapshot)' -benchmem -run=^$$

# fuzz smoke-runs each decoder fuzzer (the JSONL and snapshot decoders and
# the cluster wire protocol) for FUZZTIME. FuzzDecodeJSONL is differential: the JSONL
# scanner and encoder against encoding/json on every input.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeJSONL -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run=NONE -fuzz=FuzzDecodeWire -fuzztime=$(FUZZTIME) ./internal/cluster/

# snapshot-smoke proves the binary columnar snapshot codec end to end at
# scale 0.2: write a snapshot with botgen, reload it with botreport — once
# over the default mmap path and once with BOTSCOPE_NO_MMAP=1 forcing the
# read-into-the-heap fallback — and require both reloaded Table IIIs to match the
# regenerated one byte for byte. The stderr load line pins which path each
# run actually took. The .bscs file is left behind for the CI artifact
# upload.
snapshot-smoke:
	$(GO) run ./cmd/botgen -scale 0.2 -seed 1 -snapshot snapshot_smoke.bscs
	$(GO) run ./cmd/botreport -snapshot snapshot_smoke.bscs -scale 0.2 -only "Table III" > snapshot_smoke_loaded.txt 2> snapshot_smoke_mmap.log
	grep -q "mmap=true" snapshot_smoke_mmap.log
	BOTSCOPE_NO_MMAP=1 $(GO) run ./cmd/botreport -snapshot snapshot_smoke.bscs -scale 0.2 -only "Table III" > snapshot_smoke_nommap.txt 2> snapshot_smoke_nommap.log
	grep -q "mmap=false" snapshot_smoke_nommap.log
	$(GO) run ./cmd/botreport -scale 0.2 -seed 1 -only "Table III" > snapshot_smoke_generated.txt
	cmp snapshot_smoke_loaded.txt snapshot_smoke_generated.txt
	cmp snapshot_smoke_nommap.txt snapshot_smoke_generated.txt
	@rm -f snapshot_smoke_loaded.txt snapshot_smoke_nommap.txt snapshot_smoke_generated.txt snapshot_smoke_mmap.log snapshot_smoke_nommap.log
	@echo "snapshot-smoke: mmap and fallback reloads are byte-identical"

report:
	$(GO) run ./cmd/botreport -scale 0.2

# fmt and fmt-check cover one file set: every Go file in the tree.
fmt:
	gofmt -l . | xargs -r gofmt -l -w

fmt-check:
	@fmtout=$$(gofmt -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
