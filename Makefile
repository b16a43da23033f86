.PHONY: check test bench bench-scale bench-e2e bench-pair build

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

bench-pair: ## N interleaved parent/change pairs per workload with verdicts: make bench-pair REF=HEAD~1 [N=10] [SEED=1] [WORKLOADS="steady_churn sim_day"]
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=commit [N=10] [SEED=1] [WORKLOADS=...]" >&2; exit 2; }
	SEED=$(or $(SEED),1) ./scripts/benchpair.sh $(REF) $(or $(N),10) $(WORKLOADS)
