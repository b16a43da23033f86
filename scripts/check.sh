#!/bin/sh
# Tier-1 verification: vet, build, race-enabled tests, a one-shot
# benchmark smoke pass (compiles and exercises every benchmark body once;
# perf numbers come from `go test -bench . -benchtime 2s`, see
# EXPERIMENTS.md), the end-to-end harness's own vet + tests, and a fuzz
# smoke pass.
set -eux
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...
# -short keeps the Scale* 1M-fleet benchmarks out of tier-1; CI's
# scale-smoke job runs them once, and `make bench-scale` measures them.
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
# of the typed config decoder from the encoding/json round trip it
# stands for, of TaskSpec.Equal from byte-equality of the specs' JSON
# forms (what decided a restart before specs were compared), or of the
# batched Task.Advance from the per-partition drain it replaced.
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzFrameDecode' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzDocRoundTrip' -fuzztime 5s
go test ./internal/wire/stream -run 'XXXNONE' -fuzz 'FuzzStreamDecode' -fuzztime 5s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzJobConfigFromDoc' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzSpecEqualMatchesJSON' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzAdvanceMatchesPerPartitionDrain' -fuzztime 5s
