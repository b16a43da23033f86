.PHONY: check test bench bench-scale bench-e2e build

check: ## tier-1 verify: vet + build + race tests + bench smoke + bench/ harness tests
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench: ## regular micro-benchmark pass (scale tier skipped): make bench OUT=file.json
	@test -n "$(OUT)" || { echo "usage: make bench OUT=file.json" >&2; exit 2; }
	BENCH_SHORT=1 ./scripts/bench.sh $(OUT)

bench-scale: ## 1M-fleet scale tier only; writes BENCH_SCALE.json
	BENCHTIME=$${BENCHTIME:-20x} ./scripts/bench.sh BENCH_SCALE.json Scale

bench-e2e: ## the four BENCHMARK.json workloads end to end, dev seed, untraced
	for w in steady_churn release_push failover_storm sim_day; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; \
	done
