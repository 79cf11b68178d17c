# gosst build/verify entry points.
#
#   make check      — the CI gate: vet + full tests + race on the packages
#                     with concurrency (sim kernel, parallel runtime,
#                     sweeps, fault models) + a short fuzz pass over the
#                     config parsers and the rank-partitioning lookahead
#   make bench      — the perf gate: the event-kernel hot loop, the clock
#                     tick (alone, with 8 handlers, and merged against a
#                     16-deep event heap) and the lane dispatch (four and
#                     256 monotone lanes in the lane heap), the parallel window barrier
#                     (a 4-rank ring at 100ns lookahead, and a 1ns-lookahead
#                     lattice of dense local ticks),
#                     the sweep scheduler at 1/2/4/8 workers and the result
#                     cache's hit and miss paths (the hit path also with a
#                     journal and the result CSV, as sst-serve runs it),
#                     Fig. 9's network study,
#                     a 96-point grid's result CSV, the canonical config
#                     hash, one journal record and the kernel front end's
#                     per-op drain, with -benchmem, checked
#                     against the committed BENCH_baseline.json (alloc
#                     counts must not grow; ns/op within tolerance on the
#                     host the baseline records, a warning on any other; a
#                     baseline benchmark missing from the run fails).
#                     `make check bench` is the full pre-merge gate.
#   make bench-baseline — rerun the perf benchmarks and rewrite the baseline
#   make tables     — regenerate every experiment table ("reproduce the paper")
#   make fuzz-short — a few seconds of coverage-guided fuzzing per decoder
#                     of untrusted bytes: the config loaders, the rank
#                     partitioner, the append-log
#                     scanner, the SR1 assembler (FuzzAssemble), the
#                     binary trace reader (FuzzTraceStream), the
#                     engine snapshot container (FuzzSnapshotDecode), the
#                     owned-event ledger against its map+sort oracle
#                     (FuzzEventSetLedger), the
#                     canonical config hash against its fmt oracle
#                     (FuzzConfigHash), the job-submission HTTP body
#                     (FuzzJobSpecHTTP), result-table cells against
#                     their fmt oracle (FuzzTableCell) and the grid's
#                     direct CSV writer against its table's CSV
#                     (FuzzDSEGridCSV); crashes fail the target
#   make resume-smoke — the crash-safety gate: SIGINT a journaled sweep
#                     mid-flight, resume it, and require the resumed grid to
#                     be byte-identical to an uninterrupted run. Runs inside
#                     `make check`
#   make snapshot-smoke — the system-run crash gate: SIGKILL a 2-rank
#                     system run mid-flight, restore from its last
#                     snapshot, and require the finished summary (including
#                     the sync-window count) to be byte-identical to an
#                     uninterrupted run. Runs inside `make check`
#   make cache-smoke — the warm-start gate: run a sweep twice sharing a
#                     -cache-file; the first summary line must read
#                     "cache entries=… hits=0 misses=16", the second
#                     "hits=16 misses=0" over an identical grid. The same
#                     for sst-net's Fig. 9 grid, whose two tables are one
#                     sweep: 16 cells, each simulated once. Runs inside
#                     `make check`
#   make crash-smoke — the crash-point gate: enumerate every host-storage
#                     operation (write, fsync, rename, dir-fsync) of the
#                     four persistence surfaces — journaled sweep, cache
#                     warm-start file, serve job lifecycle, snapshot save —
#                     crash after each under every retention the iofault
#                     model distinguishes, and require recovery to converge
#                     byte-identically (or fail typed). Runs inside
#                     `make check`
#   make serve-smoke — the service gate: against real sst-serve processes,
#                     require a SIGTERM drain to exit 0, a kill -9 restart
#                     to converge on byte-identical results, and a full
#                     queue to shed submissions with 429 + Retry-After
#   make loc        — non-test Go lines per package, bench/ excluded: the
#                     committed measure behind ROADMAP's line-count targets
#   make profile    — where a sweep's host time goes: CPU-profile the
#                     single-worker sweep benchmark into bin/sweep.cpu.pprof
#                     and print each layer's share of the samples (the table
#                     EXPERIMENTS.md E8 commits); `make profile-gups` does
#                     the same for the full-scale gups grid, the miss path,
#                     `make profile-net` for Fig. 9's network study,
#                     `make profile-hit` for the journaled all-hit sweep and
#                     `make profile-serve` for cached jobs posted to an
#                     in-process sst-serve over HTTP; `make profile-alloc`
#                     prints the same table over the bytes PROFILE_BENCH
#                     allocates
#   make soak       — the memory-discipline gate: serve 250 journaled jobs
#                     through one resident server and require flat heap and
#                     goroutine counts plus full arena reuse, with a heap
#                     profile left in bin/soak.mprof for pprof. The short
#                     mode (100 jobs, `make soak-short`) runs inside
#                     `make check`

GO ?= go
FUZZTIME ?= 5s

# The perf-gate benchmarks: the steady-state event kernel (internal/sim) and
# the concurrent sweep scheduler (root package). -count and the regexes are
# shared between `bench` and `bench-baseline` so the two always measure the
# same thing.
BENCHES = $(GO) test -run='^$$' -bench='^Benchmark(EngineHotLoop|ClockTick|ClockTick8Handlers|ClockTickWithHeap|LaneDispatch)$$' -benchmem ./internal/sim && \
          $(GO) test -run='^$$' -bench='^BenchmarkParallelWindow$$' -benchmem ./internal/par && \
          $(GO) test -run='^$$' -bench='^Benchmark(Sweep(Workers|CacheHit|CacheHitJournaled|CacheMiss)|DSEGridCSV|NetStudy)$$' -benchmem . && \
          $(GO) test -run='^$$' -bench='^BenchmarkCanonicalHash$$' -benchmem ./internal/config && \
          $(GO) test -run='^$$' -bench='^BenchmarkJournalRecord$$' -benchmem ./internal/core && \
          $(GO) test -run='^$$' -bench='^BenchmarkKernelDrain$$' -benchmem ./internal/workload

# The memory-discipline contract, committed into BENCH_baseline.json as
# absolute hard ceilings by bench-baseline and enforced by every `make
# bench`: the warm-arena sweep stays ~10-60x below the pre-arena numbers
# (88,572,996 B/op and 1,869,553 allocs/op) however the baseline is
# regenerated, and the cold cache-miss path cannot quietly bloat either
# (about 15.9 k allocs and 27.8 MB per op with one result encoding per
# point).
# The event kernel's loops — aperiodic events, clock ticks, the two merged,
# and monotone lanes at four and at 256 lanes — are held to zero: they
# allocate nothing, ever. A
# cache-hit point costs two map probes and a copy: the all-hit sweep stays
# near its 44 allocs and 9.5 KB per op (285 and 25.8 KB while every hit
# rebuilt and hashed its machine config, 909 and 95.7 KB while that hash
# went through fmt); journaled and rendered as sst-serve does, near its 517
# allocs and 93.2 KB (758 and 109.5 KB with the rebuild and hash, 881 and
# 125.2 KB while each hit's journal line re-marshalled its result and table
# cells went through fmt) — since the names are memoized and the CSV is
# written straight into one buffer, near its 71 allocs and 80.9 KB (517 and
# 93.2 KB before); a 96-point grid's CSV to its one buffer (1461 allocs and
# 56.2 KB through a stats.Table); the canonical hash to its key string plus
# the config parsing under it, and a journal record and the kernel front
# end's per-op drain to zero. Fig. 9's network study stays near its 43.9 k
# allocs and 8.9 MB (47.7 k and 15.5 MB while each rank's script grew by
# appends, 138.2 k and 25.9 MB while a NIC cut every packet of a message at
# send time), and a pairwise parallel window allocates nothing
# (8 allocs and 508 B while each staged delivery was a closure and each
# window made its own watchdog timer and arrival set), the low-lookahead
# window included (406 allocs and 25.6 KB then; its 1 B is a run's one-off
# setup spread over the ~2 000 ops of a default -benchtime).
BENCH_CEILINGS = -max-bytes 'BenchmarkEngineHotLoop=0,BenchmarkClockTick=0,BenchmarkClockTick8Handlers=0,BenchmarkClockTickWithHeap=0,BenchmarkLaneDispatch/lanes=4=0,BenchmarkLaneDispatch/lanes=256=0,BenchmarkSweepWorkers/workers=1=9000000,BenchmarkSweepWorkers/workers=2=9000000,BenchmarkSweepWorkers/workers=4=9000000,BenchmarkSweepWorkers/workers=8=9000000,BenchmarkSweepCacheMiss=32000000,BenchmarkSweepCacheHit=10400,BenchmarkSweepCacheHitJournaled=89000,BenchmarkDSEGridCSV=7100,BenchmarkCanonicalHash=128,BenchmarkJournalRecord=0,BenchmarkKernelDrain/hpccg=0,BenchmarkKernelDrain/lulesh=0,BenchmarkNetStudy=17000000,BenchmarkParallelWindow/sync=pairwise=0,BenchmarkParallelWindow/topo=lowlat/sync=pairwise=1' \
                 -max-allocs 'BenchmarkEngineHotLoop=0,BenchmarkClockTick=0,BenchmarkClockTick8Handlers=0,BenchmarkClockTickWithHeap=0,BenchmarkLaneDispatch/lanes=4=0,BenchmarkLaneDispatch/lanes=256=0,BenchmarkSweepWorkers/workers=1=32000,BenchmarkSweepWorkers/workers=2=32000,BenchmarkSweepWorkers/workers=4=32000,BenchmarkSweepWorkers/workers=8=32000,BenchmarkSweepCacheMiss=18000,BenchmarkSweepCacheHit=48,BenchmarkSweepCacheHitJournaled=78,BenchmarkDSEGridCSV=1,BenchmarkCanonicalHash=4,BenchmarkJournalRecord=0,BenchmarkKernelDrain/hpccg=0,BenchmarkKernelDrain/lulesh=0,BenchmarkNetStudy=52000,BenchmarkParallelWindow/sync=pairwise=0,BenchmarkParallelWindow/topo=lowlat/sync=pairwise=0'

.PHONY: build fmt test vet race check bench bench-baseline tables fuzz-short resume-smoke cache-smoke serve-smoke snapshot-smoke crash-smoke soak soak-short loc profile profile-gups profile-net profile-hit profile-serve profile-alloc

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so accidental
# inter-test state dependencies surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Fails when gofmt would rewrite any Go file, listing the files.
fmt:
	@out=$$(gofmt -l .) && [ -z "$$out" ] || { echo "gofmt -l: needs formatting:"; echo "$$out"; exit 1; }

# The sweep scheduler (internal/core), the PDES runtime (internal/par), the
# event kernel they drive (internal/sim), the network partitioned across
# its rank goroutines (internal/noc), the seeded fault models the sweep
# workers run (internal/fault), the shared result cache the sweep workers
# probe concurrently (internal/cache), the sweep service's worker pool
# and admission queue (internal/serve) and the storage fault model every
# sweep worker writes its journal through (internal/iofault) are the only
# places goroutines touch shared structures; the race detector must stay
# clean there.
race:
	$(GO) test -race ./internal/sim/... ./internal/par/... ./internal/noc/... ./internal/core/... ./internal/fault/... ./internal/cache/... ./internal/serve/... ./internal/iofault/...

# Coverage-guided fuzzing of the AMM JSON loaders (arbitrary input must
# produce a validated config or an error, never a panic or a NaN/Inf/zero
# value the simulator would choke on later) and of the rank-partitioning
# path (the derived lookahead matrix must equal true shortest paths and
# zero-latency cross-rank links must be rejected by name), and of the one
# append-log line scanner under both of its record formats (arbitrary bytes
# as an existing sweep journal or cache warm-start file must open to
# exactly their leading run of valid records, never a panic), of the SR1
# assembler sst-asm feeds user files to (an error or a program that
# disassembles), of the binary trace reader sst-trace replays user files
# through (no panic, and the accepted ops re-record to a fixed point) and
# of the engine snapshot container (LoadFrom errors or
# yields an engine that keeps running), of the owned-event ledger (random
# schedule/dispatch/save/restore sequences over an EventSet and a tracked
# link save the bytes of a map+sort oracle), of the canonical config hash (every
# config that loads hashes deterministically and byte-identically to the
# fmt oracle), of the POST /v1/jobs body (202 or a 4xx, never a 5xx,
# panic or hang), of result-table cells (any float64 bit pattern, int
# and string renders exactly as fmt's %.4g / %v did) and of the design-space
# grid's direct CSV writer (any four figures render as its table's CSV).
fuzz-short:
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzLoadMachine -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzLoadSystem -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzConfigHash -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/par -run='^$$' -fuzz=FuzzPartitionLookahead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/iofault -run='^$$' -fuzz=FuzzAppendLogOpen -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/isa -run='^$$' -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/frontend -run='^$$' -fuzz=FuzzTraceStream -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzEventSetLedger -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/serve -run='^$$' -fuzz=FuzzJobSpecHTTP -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/stats -run='^$$' -fuzz=FuzzTableCell -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzDSEGridCSV -fuzztime=$(FUZZTIME)

check: build fmt vet test race fuzz-short crash-smoke soak-short serve-smoke snapshot-smoke resume-smoke cache-smoke

# Non-test Go source lines per package and in total, excluding bench/ (the
# benchmark is an instrument, not the system): what "a PR with a negative
# line count" is measured with.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l | \
	    awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; t += $$1 } \
	         END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Per-layer share of the single-worker sweep's CPU samples. Every function's
# self time goes to exactly one row, so the rows sum to 100 %: "sim queue" is
# what holds pending events in order — the binary event heap (push, Pop and
# the sifts and compares under them), the monotone lanes and the lane heap
# that merges them (lane.go) — "sim clock/dispatch" the rest of the kernel,
# then one row per model package, the Go runtime (GC, allocation,
# scheduling, maps) and everything else. PROFILE_BENCH picks the benchmark;
# profile-gups sets it to the full-scale gups grid, profile-net to Fig. 9's
# network study (BenchmarkNetStudy), where the noc row is the model, and
# profile-hit to the journaled all-hit sweep (sst-serve's per-point path for
# a cached job), where the config row is the machine-config hash, and
# profile-serve to whole cached jobs through an in-process sst-serve
# (BenchmarkServeHotJobs), where the serve row is the service and the model
# rows are the one-off fill of its result cache.
# profile-alloc prints the same table over a memory profile's alloc_space,
# the bytes each layer allocates: `make profile-alloc
# PROFILE_BENCH='BenchmarkNetStudy$$'` is EXPERIMENTS.md E21's allocation
# table.
PROFILE_BENCH ?= BenchmarkSweepWorkers/workers=1$$

# LAYERS turns `go tool pprof -top` output into the per-layer table.
LAYERS = awk ' \
	    $$2 !~ /%$$/ || $$1 == "flat" { next } \
	    { name = $$6; pct = $$2 + 0; layer = "other" } \
	    name ~ /internal\/sim\.\(\*Engine\)\.(push|resift|lane)|internal\/sim\.\(\*eventQueue\)|internal\/sim\.\(\*event\)|internal\/sim\.\(\*Lane\)/ { layer = "sim queue" } \
	    layer == "other" && name ~ /internal\/sim\./ { layer = "sim clock/dispatch" } \
	    name ~ /internal\/cpu\./ { layer = "cpu" } \
	    name ~ /internal\/mem\./ { layer = "mem" } \
	    name ~ /internal\/dram\./ { layer = "dram" } \
	    name ~ /internal\/frontend\./ { layer = "frontend" } \
	    name ~ /internal\/noc\./ { layer = "noc" } \
	    name ~ /internal\/config\./ { layer = "config" } \
	    name ~ /internal\/serve\./ { layer = "serve" } \
	    name ~ /^runtime\.|^internal\/runtime\// { layer = "runtime" } \
	    { share[layer] += pct } \
	    END { n = split("sim queue,sim clock/dispatch,cpu,mem,dram,frontend,noc,config,serve,runtime,other", order, ","); \
	          for (i = 1; i <= n; i++) printf "%-20s %5.1f %%\n", order[i], share[order[i]] }'

profile:
	@mkdir -p bin
	$(GO) test -run='^$$' -bench='$(PROFILE_BENCH)' -benchtime=5s -cpuprofile=sweep.cpu.pprof -outputdir=bin -o bin/sweep.test .
	@$(GO) tool pprof -top -nodecount=100000 -nodefraction=0 bin/sweep.test bin/sweep.cpu.pprof 2>/dev/null | $(LAYERS)

profile-alloc:
	@mkdir -p bin
	$(GO) test -run='^$$' -bench='$(PROFILE_BENCH)' -benchtime=5s -benchmem -memprofile=sweep.mem.pprof -outputdir=bin -o bin/sweep.test .
	@$(GO) tool pprof -sample_index=alloc_space -top -nodecount=100000 -nodefraction=0 bin/sweep.test bin/sweep.mem.pprof 2>/dev/null | $(LAYERS)

profile-gups:
	$(MAKE) profile PROFILE_BENCH='BenchmarkSweepGups$$$$'

profile-net:
	$(MAKE) profile PROFILE_BENCH='BenchmarkNetStudy$$$$'

profile-hit:
	$(MAKE) profile PROFILE_BENCH='BenchmarkSweepCacheHitJournaled$$$$'

profile-serve:
	$(MAKE) profile PROFILE_BENCH='BenchmarkServeHotJobs$$$$'

# The crash-point gate: every test named TestCrashPoints* drives the
# internal/iofault exploration harness over one persistence surface —
# the atomic-replace helper itself, the journaled sweep, the cache
# warm-start file, the serve job lifecycle and the snapshot save — and
# asserts recovery converges at every enumerated crash, under every
# retention variant.
crash-smoke:
	$(GO) test -run='^TestCrashPoints' -count=1 ./internal/iofault/ ./internal/core/ ./internal/cache/ ./internal/serve/

# End-to-end crash-safety check of the resumable sweep path: run the grid
# once clean for reference, kill a journaled single-worker run mid-flight
# with SIGINT (exit 130; 0 if it won the race and finished), then resume
# from the journal and require the grid CSV to be byte-identical to the
# reference. The grid table carries only simulated quantities, so identical
# means field-for-field equal, not merely close.
RESUME_ARGS = -scale small -apps stream,gups -techs ddr3-1333,gddr5-4000 \
              -widths 1,2,4,8 -table grid -format csv

resume-smoke:
	$(GO) build -o bin/sst-dse ./cmd/sst-dse
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst-dse $(RESUME_ARGS) >"$$tmp/ref.csv" && \
	{ timeout --preserve-status -s INT -k 5 0.4 ./bin/sst-dse -j 1 -journal "$$tmp/sweep.jsonl" $(RESUME_ARGS) \
	    >/dev/null 2>&1; rc=$$?; [ $$rc -eq 130 ] || [ $$rc -eq 0 ] || \
	    { echo "resume-smoke: interrupted run exited $$rc, want 130 (or 0)"; exit 1; }; } && \
	./bin/sst-dse -j 1 -journal "$$tmp/sweep.jsonl" -resume $(RESUME_ARGS) >"$$tmp/resumed.csv" && \
	cmp "$$tmp/ref.csv" "$$tmp/resumed.csv" && \
	echo "resume-smoke: resumed grid identical to uninterrupted run"

# The perf gate runs vet and the concurrency race subset first so a data
# race can never hide behind a good-looking number.
# End-to-end warm-start check of the persistent result cache: run the grid
# once with a -cache-file (all misses), then again from a fresh process
# sharing the file. The second run must re-simulate nothing — its stderr
# summary shows misses=0 and one hit per design point — and its grid CSV
# must be byte-identical to the first run's.
cache-smoke:
	$(GO) build -o bin/sst-dse ./cmd/sst-dse
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst-dse -cache-file "$$tmp/results.jsonl" $(RESUME_ARGS) \
	    >"$$tmp/cold.csv" 2>"$$tmp/cold.err" && \
	grep -q 'cache entries=16 hits=0 misses=16 ' "$$tmp/cold.err" || \
	    { echo "cache-smoke: first run summary wrong:"; cat "$$tmp/cold.err"; exit 1; } && \
	./bin/sst-dse -cache-file "$$tmp/results.jsonl" $(RESUME_ARGS) \
	    >"$$tmp/warm.csv" 2>"$$tmp/warm.err" && \
	grep -q 'cache entries=16 hits=16 misses=0 ' "$$tmp/warm.err" || \
	    { echo "cache-smoke: warm run re-simulated:"; cat "$$tmp/warm.err"; exit 1; } && \
	cmp "$$tmp/cold.csv" "$$tmp/warm.csv" && \
	echo "cache-smoke: warm-started grid identical, zero re-simulation"
	$(GO) build -o bin/sst-net ./cmd/sst-net
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst-net -cache-file "$$tmp/results.jsonl" -format csv >"$$tmp/cold.csv" 2>"$$tmp/cold.err" && \
	grep -q 'cache entries=16 hits=0 misses=16 ' "$$tmp/cold.err" || \
	    { echo "cache-smoke: sst-net first run summary wrong:"; cat "$$tmp/cold.err"; exit 1; } && \
	./bin/sst-net -cache-file "$$tmp/results.jsonl" -format csv >"$$tmp/warm.csv" 2>"$$tmp/warm.err" && \
	grep -q 'cache entries=16 hits=16 misses=0 ' "$$tmp/warm.err" || \
	    { echo "cache-smoke: sst-net warm run re-simulated:"; cat "$$tmp/warm.err"; exit 1; } && \
	cmp "$$tmp/cold.csv" "$$tmp/warm.csv" && \
	echo "cache-smoke: sst-net tables identical, each cell simulated once"

# End-to-end crash check of the parallel system path: run a 2-rank system
# simulation sliced into periodic snapshots for reference, SIGKILL an
# identical run mid-flight (exit 137; 0 if it won the race and finished),
# restore from the snapshot it left behind, and require the finished
# summary — simulated time, message totals, latency, energy and window
# counts — to be byte-identical to the uninterrupted run. The reference is
# sliced with the same -snapshot-every so both runs stop at the same
# barriers. The 32-node torus takes about 1.1 s on a 2-core host at 1ms
# slices (25 snapshots), so the kill at 0.4 s lands mid-run and the restore
# resumes from a real mid-run snapshot.
SNAPSHOT_SMOKE_ARGS = -system configs/system-torus.json -par 2 -snapshot-every 1ms

snapshot-smoke:
	$(GO) build -o bin/sst ./cmd/sst
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst $(SNAPSHOT_SMOKE_ARGS) -snapshot-out "$$tmp/ref.snap" >"$$tmp/ref.out" && \
	{ timeout --preserve-status -s KILL -k 5 0.4 ./bin/sst $(SNAPSHOT_SMOKE_ARGS) -snapshot-out "$$tmp/run.snap" \
	    >/dev/null 2>&1; rc=$$?; [ $$rc -eq 137 ] || [ $$rc -eq 0 ] || \
	    { echo "snapshot-smoke: killed run exited $$rc, want 137 (or 0)"; exit 1; }; } && \
	./bin/sst $(SNAPSHOT_SMOKE_ARGS) -restore "$$tmp/run.snap" -snapshot-out "$$tmp/run.snap" >"$$tmp/restored.out" && \
	cmp "$$tmp/ref.out" "$$tmp/restored.out" && \
	echo "snapshot-smoke: restored run identical to uninterrupted run"

# End-to-end crash-tolerance check of the sweep service; the three
# scenarios live in tools/serve_smoke.sh (graceful drain, kill -9
# recovery with byte-identical results, 429 load shedding).
serve-smoke:
	$(GO) build -o bin/sst-serve ./cmd/sst-serve
	@sh tools/serve_smoke.sh bin/sst-serve

# The soak gate: TestServerSoak streams real simulation jobs through one
# resident Server and asserts flat heap/goroutines and full arena reuse.
# The full run leaves a heap profile for `go tool pprof bin/soak.mprof`.
soak:
	@mkdir -p bin
	$(GO) test -run='^TestServerSoak$$' -count=1 -v -memprofile=soak.mprof -outputdir=bin ./internal/serve

soak-short:
	$(GO) test -run='^TestServerSoak$$' -short -count=1 ./internal/serve

bench: vet race
	{ $(BENCHES); } | $(GO) run ./tools/benchcheck -baseline BENCH_baseline.json

bench-baseline:
	{ $(BENCHES); } | $(GO) run ./tools/benchcheck -baseline BENCH_baseline.json -update $(BENCH_CEILINGS)

tables:
	$(GO) test -bench=. -benchtime=1x
