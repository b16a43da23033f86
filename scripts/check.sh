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
# of the typed config decoder from the encoding/json round trip it
# stands for, of the feed's blob-to-JobConfig decode from the document
# decode it stands for, of TaskSpec.Equal from byte-equality of the specs' JSON
# forms (what decided a restart before specs were compared), or of the
# batched Task.Advance from the per-partition drain it replaced.
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzFrameDecode' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzDocRoundTrip' -fuzztime 5s
go test ./internal/wire -run 'XXXNONE' -fuzz 'FuzzJobConfigBlob' -fuzztime 5s
go test ./internal/wire/stream -run 'XXXNONE' -fuzz 'FuzzStreamDecode' -fuzztime 5s
go test ./internal/config -run 'XXXNONE' -fuzz 'FuzzJobConfigFromDoc' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzSpecEqualMatchesJSON' -fuzztime 5s
go test ./internal/engine -run 'XXXNONE' -fuzz 'FuzzAdvanceMatchesPerPartitionDrain' -fuzztime 5s
