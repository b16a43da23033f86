.PHONY: check test bench-scale bench-e2e bench-pair build

check: ## tier-1 verify: vet + build + race tests + bench smoke + bench/ harness tests
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench-scale: ## 1M-fleet scale tier, each body once: arms the in-bench allocation ceilings (CI's scale-smoke)
	go test ./... -run XXXNONE -bench Scale -benchmem -benchtime 1x

bench-e2e: ## the four BENCHMARK.json workloads end to end, dev seed, untraced
	for w in steady_churn release_push failover_storm sim_day; do \
		bash bench/run.sh --workload $$w --seed 1 --seconds 12 --trace 0 || exit 1; \
	done

bench-pair: ## N interleaved parent/change pairs per workload with verdicts: make bench-pair REF=HEAD~1 [N=10] [SEED=1] [WORKLOADS="steady_churn sim_day"]
	@test -n "$(REF)" || { echo "usage: make bench-pair REF=commit [N=10] [SEED=1] [WORKLOADS=...]" >&2; exit 2; }
	SEED=$(or $(SEED),1) ./scripts/benchpair.sh $(REF) $(or $(N),10) $(WORKLOADS)
