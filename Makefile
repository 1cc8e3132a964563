# Developer entry points.  The python toolchain is assumed to be on PATH;
# nothing here installs packages.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

STORE ?= .repro-store

.PHONY: test test-scale golden-test goldens chaos bench bench-service \
	bench-interning bench-replication bench-obs bench-scale \
	bench-workers smoke-scaleout store serve

## Tier-1 test suite (what CI runs on every push).
test:
	$(PYTHON) -m pytest -x -q

## The scale test matrix at paper_bench size (100k-entry corpora):
## store/index/API oracles plus tracemalloc budget ceilings.  Tier-1
## runs the same oracles at the tiny preset; this tier is its own CI job.
test-scale:
	$(PYTHON) -m pytest -q --run-scale -m scale

## Only the scenario golden-run regression tests.
golden-test:
	$(PYTHON) -m pytest -q -m golden

## Intentionally regenerate the scenario golden fingerprints
## (tests/goldens/*.json); commit the resulting diff.
goldens:
	$(PYTHON) scripts/refresh_goldens.py

## Fault-injection, retry and replica-convergence suites under one
## deterministic chaos seed (override: make chaos CHAOS_SEED=7).
CHAOS_SEED ?= 0
chaos:
	REPRO_CHAOS_SEED=$(CHAOS_SEED) $(PYTHON) -m pytest -q \
		tests/test_faults.py tests/test_util_retry.py \
		tests/test_service_replica.py tests/test_service_chaos.py \
		tests/test_obs.py

## Benchmark suite + seed-vs-fastpath comparison + scenario battery
## + serving layer.
bench:
	$(PYTHON) benchmarks/run_benchmarks.py

## Serving-layer benchmarks only (store/index/API) → BENCH_service.json.
bench-service:
	$(PYTHON) benchmarks/run_benchmarks.py --service

## Interned-columnar-vs-string comparison only → BENCH_interning.json
## (asserts identical outputs, >=1.5x speedup and a lower tracemalloc
## peak on the 30-day x 3-provider corpus).
bench-interning:
	$(PYTHON) benchmarks/run_benchmarks.py --interning

## Follower-replication benchmarks only (bootstrap resync, per-day lag,
## dormant fault-point overhead <2%) → BENCH_replication.json.
bench-replication:
	$(PYTHON) benchmarks/run_benchmarks.py --replication

## Observability benchmarks only (hot-path telemetry overhead <2%,
## /v1/metrics scrape cost, byte-stable rendering) → BENCH_obs.json.
bench-obs:
	$(PYTHON) benchmarks/run_benchmarks.py --obs

## Pre-fork worker-pool benchmark (4 read workers vs single process,
## per-request + keep-alive client modes, byte-identity at every store
## version, >=5x cached-throughput assert) → BENCH_workers.json.
bench-workers:
	$(PYTHON) benchmarks/run_benchmarks.py --workers 4

## The CI scale-out smoke: 4-worker pool + follower behind
## repro-serve balance; mixed load, worker SIGKILL, follower
## ejection/re-admission, aggregated-metrics checks.
smoke-scaleout:
	$(PYTHON) scripts/scaleout_smoke.py

## Scale-preset benchmarks (paper_bench + full_1m synthetic corpora):
## ingest/query/battery timings with hard time and memory-budget asserts
## → BENCH_scale.json.
bench-scale:
	$(PYTHON) benchmarks/run_benchmarks.py --scale

## Build a demo archive store (paper_realistic scenario) at $(STORE).
store:
	$(PYTHON) -m repro.service.cli init --store $(STORE)

## Serve the /v1 query API from $(STORE) (build it first: make store).
serve:
	$(PYTHON) -m repro.service.cli serve --store $(STORE)
