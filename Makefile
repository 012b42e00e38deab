# Developer entry points for the multiscatter reproduction.

PYTHON ?= python

.PHONY: install test smoke serve-smoke crash-test bench perf-report examples lint analyze typecheck check clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

# Every test under pyproject's testpaths (tests/ and perfbench/).
test:
	$(PYTHON) -m pytest

# Determinism/dtype AST linter + units/purity dataflow analyzer +
# symbolic shape/dtype verifier + asyncio/concurrency safety analyzer
# (docs/STATIC_ANALYSIS.md).
lint:
	$(PYTHON) -m tools.reprolint src/
	$(PYTHON) -m tools.reproflow src/repro
	$(PYTHON) -m tools.reproshape src/repro
	$(PYTHON) -m tools.reproasync src/repro

# The whole-program analyzers with their JSON reports: the annotated
# call graph (reproflow), the symbolic shape table (reproshape), and
# the async task graph + determinism proofs (reproasync) land next to
# the tree for inspection.
analyze:
	$(PYTHON) -m tools.reproflow src/repro --format=json > reproflow-report.json
	$(PYTHON) -m tools.reproshape src/repro --format=json > reproshape-report.json
	$(PYTHON) -m tools.reproasync src/repro --format=json > reproasync-report.json
	@echo "analyze: wrote reproflow-report.json, reproshape-report.json, and reproasync-report.json"

# mypy (strict on repro.phy/core/channel/sim per pyproject.toml).
# Skips with a notice when mypy is not installed, so `make check`
# stays usable in minimal environments.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "typecheck: mypy not installed, skipping (pip install mypy)"

# The pre-commit gate: CI's analyzer, mypy and pytest steps, the last
# two of them the suites CI reruns with the shipped shape/dtype
# contracts armed and, for the gateway, in development mode (asyncio
# debug, never-awaited and unclosed-resource warnings).  CI's other
# steps have targets of their own: smoke, crash-test, serve-smoke and
# bench.
check: lint typecheck test
	REPRO_CONTRACTS=1 $(PYTHON) -m pytest -q tests/phy tests/core tests/sim tests/gateway
	$(PYTHON) -X dev -m pytest -q tests/gateway

# Every experiment at quick scale, in parallel, with artifact gating
# (what the CI smoke job runs).
smoke:
	REPRO_WORKERS=2 $(PYTHON) -m repro run-all --preset quick --out runs/smoke
	$(PYTHON) tools/check_artifacts.py runs/smoke --expect-all

# Streaming gateway smoke: 8 tags, 2 subscribers, block policy, run
# twice: with 2 decode workers (the sharded data plane crosses the
# executor hop, 8 receptions of mixed protocols to a hop), then with
# serve's default inline decode;
# fails on any drop, eviction, consumer error, event-loop lag
# violation, or unclean drain (the CI gateway smoke steps).  Runs under
# asyncio debug mode with the loopwatch sanitizer armed.
serve-smoke:
	PYTHONASYNCIODEBUG=1 REPRO_LOOPWATCH=1 \
		$(PYTHON) -m repro serve --tags 8 --subscribers 2 --max-packets 32 \
		--decode-workers 2 --decode-batch 8 --policy block --require-clean
	PYTHONASYNCIODEBUG=1 REPRO_LOOPWATCH=1 \
		$(PYTHON) -m repro serve --tags 8 --subscribers 2 --max-packets 32 \
		--policy block --require-clean

# Crash a run mid-save with the fault-injection harness, require that
# no partial artifact survived, resume it twice (the second resume is a
# no-op), and require byte-identity with an undisturbed run and a clean
# artifact check (docs/ROBUSTNESS.md; the CI crash/resume guard).  Both
# run directories start empty, so an artifact left by an earlier run
# cannot hide a partial write.
crash-test:
	rm -rf runs/fresh runs/crashy
	$(PYTHON) -m repro run-all --preset quick --out runs/fresh
	REPRO_FAULTS="kill:site=save,name=fig15_occlusion" \
		$(PYTHON) -m repro run-all --preset quick --out runs/crashy || true
	test ! -e runs/crashy/fig15_occlusion.json
	$(PYTHON) -m repro run-all --resume runs/crashy
	$(PYTHON) -m repro run-all --resume runs/crashy
	diff -r runs/fresh runs/crashy
	$(PYTHON) tools/check_artifacts.py runs/crashy --expect-all

# The anchored performance gates (docs/PERFORMANCE.md): seed-to-shipped
# kernel speed ratios against fixed floors, and the decode pool against
# the Amdahl bound of the same run's stage/decode split.  CI's last step.
# The repository benchmark is perfbench (BENCHMARK.json).
bench:
	PYTHONPATH=src $(PYTHON) -m tools.perfgate

# Counters/gauges/cache hit-rates of one representative experiment.
perf-report:
	REPRO_PERF=1 $(PYTHON) -m repro run fig05_envelope_id

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache runs
	find . -name __pycache__ -type d -exec rm -rf {} +
