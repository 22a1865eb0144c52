# Developer entry points. Everything runs with src/ on PYTHONPATH; no
# install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-reference coverage test-udp bench-smoke bench-transfer \
	bench-ingest bench-raptor bench-adaptive bench-udp bench-swarm \
	bench-gate perfbench-selftest \
	swarm-smoke docs-check typecheck all

all: test docs-check typecheck

# Tier-1: the full test suite (the bar every change must clear).
test:
	$(PYTHON) -m pytest -x -q

# Tier-1 with the scalar reference backend forced.  The reference
# implementations are the oracle the differential tests pin the
# vectorized kernels against, so they must stay green on every change —
# not only when someone remembers to flip the env var locally.
test-reference:
	REPRO_CODEC_BACKEND=reference $(PYTHON) -m pytest -x -q

# Line coverage of the codec core (src/repro/codes + src/repro/gf) and
# the decode intake above it (src/repro/fountain + src/repro/transfer),
# accumulated across both backends so reference-only and
# vectorized-only branches both count.  Skips gracefully when
# pytest-cov is not installed (CI installs it and runs this for real).
COV_PACKAGES = --cov=repro.codes --cov=repro.gf --cov=repro.fountain \
	--cov=repro.transfer

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q $(COV_PACKAGES) --cov-report= ; \
		REPRO_CODEC_BACKEND=reference $(PYTHON) -m pytest -q \
			$(COV_PACKAGES) --cov-append \
			--cov-report=term-missing:skip-covered ; \
	else \
		echo "pytest-cov not installed; skipping coverage" \
			"(pip install pytest-cov)"; \
	fi

# Just the transport layer (framing, pacing, memory/file/UDP delivery).
# Binds real loopback sockets; skips gracefully where unavailable.
test-udp:
	$(PYTHON) -m pytest -q tests/test_transport.py

# One quick pass over the benchmark suite — catches rot in the
# table/figure harnesses without paying for full measurement runs.
# Includes the transfer sweep and the UDP throughput bench, which
# publish BENCH_transfer.json / BENCH_udp.json at the repo root.
bench-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

# Just the transfer-subsystem sweep: block sizes x code families,
# reporting reception overhead and end-to-end goodput.
bench-transfer:
	$(PYTHON) -m pytest -q benchmarks/bench_transfer_blocks.py

# Decode-ingest rates: droplets/sec and decode MB/s per backend and
# batch size, including the gated batched_ingest_speedup headline
# (asserted >= 4x in the bench itself, floor-checked by bench-gate).
# A standalone run replaces only the ingest rows of BENCH_transfer.json
# (recorders merge rows by case), so the transfer rows stay in place.
bench-ingest:
	$(PYTHON) -m pytest -q benchmarks/bench_decode_ingest.py

# Raptor encode fast path: solve-plan vs pre-solve speedup and cold
# geometry+plan build cost (publishes BENCH_raptor.json; byte-identity
# of the two encode paths is asserted in-bench).
bench-raptor:
	$(PYTHON) -m pytest -q benchmarks/bench_raptor_encode.py

# Closed-loop vs open-loop delivery on the Gilbert satellite population
# (regenerates BENCH_adaptive.json; the >=15% p99 win is asserted
# in-bench and cross-case locked by bench-gate on both backends).
bench-adaptive:
	$(PYTHON) -m pytest -q benchmarks/bench_adaptive.py

# UDP loopback delivery: sender spray rate + end-to-end goodput.
bench-udp:
	$(PYTHON) -m pytest -q benchmarks/bench_udp_throughput.py

# Swarm scenario engine: receivers/sec + overhead percentiles at bench
# scale (publishes BENCH_swarm.json).
bench-swarm:
	$(PYTHON) -m pytest -q benchmarks/bench_swarm.py

# The perf-regression gate: compares the freshly produced BENCH_*.json
# at the repo root against the committed (HEAD) baselines with
# per-metric tolerances.  Run a bench target first.
bench-gate:
	$(PYTHON) tools/check_bench.py

# The shipped-path benchmark's own fast-mode test: every workload prints
# every declared metric (untraced and traced), a truncated stream counts
# as a failed transfer, and the benchmark refuses to run without src/.
perfbench-selftest:
	$(PYTHON) -m pytest -q perfbench/selftest.py

# Quick population-scale pass over committed scenarios: one scaled
# flash crowd with exact-replay validation, plus a cross-scenario
# comparison table.
swarm-smoke:
	$(PYTHON) -m repro swarm run examples/scenarios/flash_crowd.json \
		--receivers 3000 --spot-check 8
	$(PYTHON) -m repro swarm compare \
		examples/scenarios/layered_tiers.json \
		examples/scenarios/midstream_joiners.json --receivers 2000

# Fails if any ```python block in the docs does not run as written.
docs-check:
	$(PYTHON) tools/check_docs.py README.md docs/ARCHITECTURE.md

# mypy over the typed core: the registry protocols, the repro.api
# facade, and the protocol layer that consumes them (config: mypy.ini).
# Skips gracefully when mypy is not installed (the library itself has
# no dependency on it); CI installs mypy and runs this for real.
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/api.py src/repro/codes/registry.py \
			src/repro/protocol; \
	else \
		echo "mypy not installed; skipping typecheck (pip install mypy)"; \
	fi
