GO ?= go
FUZZTIME ?= 15s

.PHONY: build build-cross loc test vet botvet botvet-json botvet-timed race verify verify-race benchmark benchmark-smoke bench bench-smoke bench-allocs bench-update bench-stream snapshot-smoke report fmt fmt-check fuzz

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

# loc prints non-test, non-vendor, non-testdata Go lines per package and
# in total: the unit the ROADMAP's simplification items are denominated
# in. benchmark/ gets its own total because a PR outside it may not touch
# it, and the static gate (cmd/botvet + internal/analysis) gets one
# because ROADMAP item 10(c) is denominated in it. Raw lines (wc -l), so
# comment and blank lines count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './vendor/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 \
	| xargs -0 wc -l \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1; if (d !~ /^\.\/benchmark/) o += $$1; \
			if (d ~ /^\.\/(cmd\/botvet|internal\/analysis)/) g += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d total\n%7d total outside benchmark/\n%7d gate\n", t, o, g }'

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# BOTVET_SRC is everything the botvet binary is built from; touching any
# of it invalidates bin/botvet without forcing a rebuild on unrelated
# repo edits.
BOTVET_SRC := go.mod $(wildcard go.sum) $(shell find cmd/botvet internal/analysis vendor -name '*.go' 2>/dev/null)

bin/botvet: $(BOTVET_SRC)
	$(GO) build -o bin/botvet ./cmd/botvet

# BOTVET_ANALYZERS is the registered gate, in cmd/botvet/main.go's order
# (a cmd/botvet test fails when the two disagree): the SSA tier (goleak,
# ctxflow, wireframe), the invariant tier (nodeterm, lockguard, floateq,
# sharedslice) and the columnar-era tier (mmaplife).
BOTVET_ANALYZERS := ctxflow floateq goleak lockguard mmaplife nodeterm sharedslice wireframe

# botvet runs them over every package via go vet's -vettool hook. Exit
# code 0 means every analyzer ran clean; 1 means diagnostics (or build
# failure); 2 means the tool was misused. The binary has no modes of its
# own: `go vet -vettool=bin/botvet -goleak ./...` runs one analyzer,
# `-goleak=false` all but one.
#
# The run is stamp-cached: the key hashes go.mod/go.sum, every .go file
# the vet sweep can see (root package and benchmark/ included; only the
# benchmark's .bench_build scratch is left out), and the built botvet
# binary itself (so a tool rebuilt from the same sources but a different
# toolchain re-runs). A no-op invocation skips the vet sweep entirely.
# Delete bin/.botvet-clean to force a re-run.
BOTVET_STAMP := bin/.botvet-clean
botvet: bin/botvet
	@hash=$$( { cat go.mod go.sum 2>/dev/null; cat bin/botvet; find . -name '*.go' ! -path './.bench_build/*' -print0 | sort -z | xargs -0 cat; } | sha256sum | cut -d' ' -f1 ); \
	if [ -f $(BOTVET_STAMP) ] && [ "$$(cat $(BOTVET_STAMP))" = "$$hash" ]; then \
		echo "botvet: clean (cached, key $${hash%??????????????????????????????????????????????????})"; \
	else \
		rm -f $(BOTVET_STAMP); \
		$(GO) vet -vettool=$(abspath bin/botvet) ./... && echo "$$hash" > $(BOTVET_STAMP); \
	fi

# botvet-json is the same gate with machine-readable output: go vet -json
# emits one JSON object per package keyed by analyzer name, suitable for
# editor integrations and CI annotation tooling. go vet -json exits 0
# even with findings: read the output, not the status.
botvet-json: bin/botvet
	$(GO) vet -json -vettool=$(abspath bin/botvet) ./...

# botvet-timed runs each registered analyzer alone and reports
# wall-clock, so a slow interprocedural pass shows up in CI logs before
# it slows the merge gate for everyone.
botvet-timed: bin/botvet
	@for a in $(BOTVET_ANALYZERS); do \
		start=$$(date +%s%N); \
		$(GO) vet -vettool=$(abspath bin/botvet) -$$a ./... || exit 1; \
		end=$$(date +%s%N); \
		printf 'botvet[%s]: %d ms\n' "$$a" $$(( (end - start) / 1000000 )); \
	done

race:
	$(GO) test -race ./...

# verify-race is the dynamic complement of the static gate: the worker
# parity, determinism, and concurrent-access tests — what holds the
# par.Map/ChunkMap kernels to "any worker count, same answer", and what
# the sharedslice analyzer reasons about statically — run under the race
# detector with the full machine's parallelism; TestLazy is the
# build-once holder of every derived product, TestSnapshot also selects
# the analyzer's generation-published snapshot tests (one writer against
# eight polling readers), and Concurrent the cluster's
# readers-during-shard-churn test. -count=2 shakes out once-per-process
# caching effects (memo.Lazy products, memoized views).
verify-race:
	$(GO) test -race -count=2 \
		-run 'TestMap|TestChunk|TestWorkers|Parallel|Concurrent|Deterministic|TestParity|TestStoreAccessors|TestStoreSummaryWorkers|TestBotDense|TestDispersionIndex|TestIngest|TestSnapshot|TestAnalyzerIngested|TestLazy' \
		./internal/par/ ./internal/memo/ ./internal/dataset/ ./internal/core/ ./internal/stream/ ./internal/synth/ ./internal/experiments/ ./internal/cluster/

# benchmark runs the repo's benchmark as the pipeline does (BENCHMARK.json:
# four workloads, eight end-to-end metrics; ~30 s a workload). It is the
# only harness whose numbers a PR may claim. benchmark-smoke drives the
# same four workloads at scale 0.05 for two passes: it checks the output
# digests and every code path in a couple of seconds and measures nothing.
benchmark:
	bash benchmark/run.sh --workload all

benchmark-smoke:
	$(GO) run ./benchmark -smoke -workload all

# verify is the full pre-merge gate: build, stock vet, project analyzers,
# formatting, the race-enabled test suite, and the benchmark's smoke run.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) botvet
	$(MAKE) fmt-check
	$(GO) test -race ./...
	$(MAKE) benchmark-smoke

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# bench-smoke compiles and single-shots every benchmark so they cannot
# bit-rot; -short skips the fixed-scale (scale 1/10) kernel benchmarks.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -short -run=^$$

# bench-allocs runs the hot-kernel micro-benchmarks with -benchmem and
# fails when any exceeds its budget in bench_thresholds.json (see
# cmd/benchguard). This is the CI gate against allocation regressions in
# the ARIMA fitter, the dispersion scan, the cross-shard merge, the BSCW
# payload walks (encode nothing, decode what the message holds: a closure
# per field shows here, not in live_sharded), the columnar store build, the snapshot open (a per-row decode coming back
# is megabytes; the budget is one), the JSONL feed codec, the live
# snapshot (the first read of a generation, and every later one), and the
# two report kernels that must stay in dense-id space (Ext: Defense, Ext:
# Load, at the benches' default scale 0.1). Each alternative
# selects all of a benchmark's sub-benchmarks; the /scale1 segment belongs
# to the last alternative only.
BENCH_ALLOC_PATTERN := 'BenchmarkFit$$|BenchmarkAutoFit$$|BenchmarkDispersionSeries$$|BenchmarkMergeSnapshots$$|BenchmarkWireCodec$$|BenchmarkNewStore$$|BenchmarkReadSnapshot$$|BenchmarkDecodeJSONL$$|BenchmarkAnalyzerSnapshot$$|BenchmarkExtDefense$$|BenchmarkExtLoad$$|BenchmarkWriteJSONL$$/scale1$$'
BENCH_ALLOC_PKGS := ./internal/timeseries ./internal/core ./internal/cluster ./internal/stream .
bench-allocs:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json
	@rm -f bench_allocs.out

# bench-update re-measures the budgeted kernels and regenerates
# bench_thresholds.json with headroom (see benchguard -update). Run after
# a deliberate allocation-profile change, then review the diff — and keep
# BenchmarkExtLoad's byte budget at 1 MiB (observed 0.59 MB): the 2 MiB
# -update writes would let the 2n-event sort (1.65 MB) or an unsized
# append on the load points (~1.1 MB) back in.
bench-update:
	$(GO) test -run=^$$ -bench $(BENCH_ALLOC_PATTERN) \
		-benchmem -benchtime=10x $(BENCH_ALLOC_PKGS) > bench_allocs.out
	@cat bench_allocs.out
	$(GO) run ./cmd/benchguard -in bench_allocs.out -thresholds bench_thresholds.json -update
	@rm -f bench_allocs.out

# bench-stream records streaming ingest throughput (attacks/sec).
bench-stream:
	$(GO) test -bench='BenchmarkStream(Ingest|Snapshot)' -benchmem -run=^$$

# fuzz smoke-runs each decoder fuzzer (dataset codecs and the cluster
# wire protocol) for FUZZTIME. FuzzDecodeJSONL is differential: the JSONL
# scanner and encoder against encoding/json on every input.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecodeCSV -fuzztime=$(FUZZTIME) ./internal/dataset/
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

# fmt and fmt-check cover one file set: every Go file outside vendor/.
fmt:
	gofmt -l . | grep -v '^vendor/' | xargs -r gofmt -l -w

fmt-check:
	@fmtout=$$(gofmt -l . | grep -v '^vendor/' || true); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
