#!/bin/sh
# Tier-1 verification: gofmt, vet, build, the API-surface audit, race-enabled
# tests, a one-shot benchmark smoke pass (compiles and exercises every
# benchmark body once; perf numbers come from `make bench-e2e` and
# `make bench-pair`, see EXPERIMENTS.md), the end-to-end harness's own vet
# + tests, and a fuzz smoke pass.
set -eux
cd "$(dirname "$0")/.."

# Every Go file of the repo (tracked, or new and not ignored — so never
# the benchmark's build trees) is gofmt-clean: gofmt -l lists the ones
# that are not.
unformatted=$(git ls-files -co --exclude-standard '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi
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
# Fuzz smoke: every fuzz target of every package, found with
# `go test -list`, for 5 s over its committed corpus plus fresh mutations
# (each target's doc comment says what it holds). Each name is anchored:
# a bare -fuzz FuzzMerge also matches FuzzMergeBlobs, and the run fails.
# A short minimization budget keeps a target with slow inputs (whole
# snapshots, framed streams) from spending its seconds minimizing one.
fuzz_list=$(go test -list '^Fuzz' ./...)
echo "$fuzz_list" |
	awk '/^Fuzz/ { t[n++] = $1 } /^ok/ { for (i = 0; i < n; i++) print $2, t[i]; n = 0 }' |
	while read -r pkg target; do
		go test "$pkg" -run 'XXXNONE' -fuzz "^$target\$" -fuzztime 5s -fuzzminimizetime 1s
	done
