#!/bin/sh
# Tier-1 verification: vet, build, the API-surface audit, race-enabled
# tests, a one-shot benchmark smoke pass (compiles and exercises every
# benchmark body once; perf numbers come from `make bench-e2e` and
# `make bench-pair`, see EXPERIMENTS.md), the end-to-end harness's own vet
# + tests, and a fuzz smoke pass.
set -eux
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# No option that nothing outside its package sets, no exported internal/**
# identifier that only tests reference — beyond scripts/surface/allow.txt,
# which gives a reason per entry.
go run ./scripts/surface
go test -race ./...
# A Task Service publishes a small draft inline and a large one on its
# worker pool, as wide as GOMAXPROCS: one and four procs take both paths
# under the race detector whatever the host's core count.
go test -race -cpu 1,4 ./internal/taskservice
# -short keeps the Scale* 1M-fleet benchmarks out of tier-1; CI's
# scale-smoke job (`make bench-scale`) runs each of them once.
go test -short ./... -run 'XXXNONE' -bench . -benchtime 1x
# bench/ is a module of its own (BENCHMARK.json's frozen harness), so
# `./...` above never compiles it: vet it and run its smoke tests — the
# per-op correctness gate on all four workloads — so an API change that
# breaks the harness fails here, not in the benchmark run after merge.
go -C bench vet .
go -C bench test .
# Fuzz smoke: a few seconds per target over the committed corpus plus
# fresh mutations. Long fuzzing sessions grow the corpus offline; this
# catches frame-decoder and round-trip regressions fast — and any drift
# of the typed config decoder from the encoding/json round trip it stands
# for, of the blob-to-JobConfig decode from the document decode it stands
# for, of the typed encode from the encoding/json document of the config
# it stands for, of the Job Store's blob merge, blob edit and blob diff
# from the map merge, path write and map diff they replaced, of TaskSpec.Equal from byte-equality
# of the specs' JSON forms (what decided a restart before specs were
# compared), of the batched Task.Advance from the per-partition drain it
# replaced, or of the in-place Task.Respec from the Stop, NewTask, Start
# restart it stands for — any job config the Job Service accepts that a
# later stage (syncer round, spec feed, Task Service expansion) rejects or
# panics on, any snapshot file Restore panics on, half-applies when it
# refuses it, or restores to a store that does not snapshot back to it,
# and any schedule of commits, drops, overflows, restores, bounded pumps,
# forced redirects and failed polls after which a spec-feed subscriber
# does not converge to the running table.
# FuzzRestore's inputs are whole snapshots, slow to minimize, and
# FuzzReadFrame can spend a whole run minimizing one new input at 0
# execs/s: a short minimization budget leaves the smoke its seconds to
# mutate.
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzFrameDecode' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzDocRoundTrip' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzJobConfigBlob' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzAppendJobConfig' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzReadFrame' -fuzztime 5s -fuzzminimizetime 1s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzJobConfigFromDoc' -fuzztime 5s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzMergeBlobs' -fuzztime 5s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzEditBlob' -fuzztime 5s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzDiffBlobs' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzSpecEqualMatchesJSON' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzAdvanceMatchesPerPartitionDrain' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzRespecMatchesRestart' -fuzztime 5s
go test ./internal/statesyncer -run 'XXXNONE' -fuzz 'FuzzInputBoundary' -fuzztime 5s
go test ./internal/taskservice -run 'XXXNONE' -fuzz 'FuzzFeedConverges' -fuzztime 5s
go test ./internal/jobstore -run 'XXXNONE' -fuzz 'FuzzRestore' -fuzztime 5s -fuzzminimizetime 1s
