# Developer entry points.  The python toolchain is assumed to be on PATH;
# nothing here installs packages.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

STORE ?= .repro-store

.PHONY: test test-scale golden-test goldens chaos bench bench-suite \
	smoke-scaleout store serve

## Tier-1 test suite (what CI runs on every push).
test:
	$(PYTHON) -m pytest -x -q

## The scale tier: the store/index/API oracles at paper_bench size
## (100k-entry corpora) with tracemalloc budget ceilings, the ingest,
## query and battery gates at paper_bench and full_1m (1M-entry days),
## and the timing floors (index vs archive scan, worker pool vs single
## process, columnar Figure 1a vs its reference).  Tier-1 runs the same
## oracles at the tiny preset; this tier is its own CI job.
test-scale:
	$(PYTHON) -m pytest -q --run-scale -m scale

## Only the scenario golden-run regression tests.
golden-test:
	$(PYTHON) -m pytest -q -m golden

## Intentionally regenerate the scenario golden fingerprints
## (tests/goldens/*.json); commit the resulting diff.
goldens:
	$(PYTHON) scripts/refresh_goldens.py

## Fault-injection, retry, balancer and replica-convergence suites under
## one deterministic chaos seed (override: make chaos CHAOS_SEED=7).
## CI's chaos job runs this target, so the file list lives only here.
CHAOS_SEED ?= 0
chaos:
	REPRO_CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_faults.py tests/test_util_retry.py \
		tests/test_service_replica.py tests/test_service_chaos.py \
		tests/test_service_balance.py tests/test_obs.py

## The deployed-path benchmark (client -> repro-serve balance -> worker
## pool -> store) on both workloads BENCHMARK.json declares, 30 s each
## at seed 1; reports land in .perfbench/results/.
bench:
	for workload in hot_read zipf_read; do \
		$(PYTHON) perfbench/run.py --workload $$workload \
			--seed 1 --seconds 30 || exit 1; \
	done

## The per-figure paper-reproduction timings (benchmarks/test_bench_*.py)
## under pytest-benchmark, raw JSON under .perfbench/.
bench-suite:
	mkdir -p .perfbench
	$(PYTHON) -m pytest benchmarks --benchmark-only -q \
		--benchmark-json=.perfbench/bench-suite.json

## The CI scale-out smoke: 4-worker pool + follower behind
## repro-serve balance; mixed load, worker SIGKILL, follower
## ejection/re-admission, aggregated-metrics checks.
smoke-scaleout:
	$(PYTHON) scripts/scaleout_smoke.py

## Build a demo archive store (paper_realistic scenario) at $(STORE).
store:
	$(PYTHON) -m repro.service.cli init --store $(STORE)

## Serve the /v1 query API from $(STORE) (build it first: make store).
serve:
	$(PYTHON) -m repro.service.cli serve --store $(STORE)
