# Convenience targets for the VMAT reproduction.

PYTHON ?= python

.PHONY: install test bench bench-scale bench-scale-100k bench-scale-1m report examples figures service-smoke service-chaos tournament-smoke all clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-scale:
	$(PYTHON) -m repro bench scale --compare BENCH_scale.json

# The full sweep including the 100k-node grid cell (slow: minutes of
# wall and gigabytes of RSS; excluded from tier-1 / CI smoke, which
# run --sizes 100 1000 10000).  Enforces the absolute memory-per-node
# gate in repro.perf.scale on the 100k cell.
bench-scale-100k:
	$(PYTHON) -m repro bench scale --sizes 100 1000 10000 100000 \
		--compare BENCH_scale.json

# The full sweep plus the one-million-node grid cell (1000x1000,
# single execution).  Tens of minutes of wall on one core; excluded
# from tier-1 and CI.  The 100k and 1M cells must hold both absolute
# gates in repro.perf.scale: peak bytes/node and the wall-clock budget
# (REPRO_SCALE_BUDGET_S overrides the default 1800 s).
bench-scale-1m:
	$(PYTHON) -m repro bench scale --sizes 100 1000 10000 100000 1000000 \
		--compare BENCH_scale.json

report:
	$(PYTHON) -m repro report

# 25-node loopback service deployment (docs/SERVICE.md), gated on
# bit-for-bit equivalence with the in-process simulator.  Two cells:
# a query under a crash + link-down fault plan, and a query plus a
# full revocation cascade under a spurious-veto attacker (theta=6 so
# the cascade converges in seconds).  The cells are disjoint because
# fault injection puts pinpointing in benign mode (no revocations).
service-smoke:
	$(PYTHON) -c "from repro.faults.plan import FaultPlan, LinkDown, NodeCrash; \
	print(FaultPlan(name='svc-smoke', events=(NodeCrash(start=3, end=9, node=7), \
	LinkDown(start=5, end=14, a=2, b=3))).to_json())" > .service-smoke-plan.json
	$(PYTHON) -m repro service run --nodes 25 --processes 2 --seed 2 \
		--fault-plan .service-smoke-plan.json --check-equivalence
	$(PYTHON) -m repro service run --nodes 25 --processes 2 --seed 0 \
		--compromised 5 --theta 6 --attack spurious-veto --check-equivalence
	rm -f .service-smoke-plan.json

# Resilience gate (docs/SERVICE.md, "Failure semantics"): the seeded
# chaos harness — SIGKILL mid-session, host restart with journal
# replay — must be deterministic end to end.  Two runs of the same
# plan emit their canonical outcome documents, diffed at zero
# tolerance; a third run exercises hung-host (SIGSTOP) detection.
service-chaos:
	$(PYTHON) -m repro service chaos --nodes 8 --processes 2 --seed 3 \
		--detection-window 2 --heartbeat-interval 0.2 --restart-budget 2 \
		--profile kill --chaos-seed 1 --output .chaos-a.json
	$(PYTHON) -m repro service chaos --nodes 8 --processes 2 --seed 3 \
		--detection-window 2 --heartbeat-interval 0.2 --restart-budget 2 \
		--profile kill --chaos-seed 1 --output .chaos-b.json
	diff .chaos-a.json .chaos-b.json
	$(PYTHON) -m repro service chaos --nodes 8 --processes 2 --seed 3 \
		--detection-window 2 --heartbeat-interval 0.2 --restart-budget 2 \
		--profile stop --chaos-seed 1
	rm -f .chaos-a.json .chaos-b.json

# Adversary-tournament gate (docs/ADVERSARIES.md): the 2x2x2 smoke
# grid (2 zoo strategies x 2 predtests x 2 topologies) runs twice --
# parallel then inline -- with honest-node-safety and
# revocation-progress asserted inside every cell.  The two stores must
# diff clean at zero tolerance, and the regenerated ranking must match
# the committed BENCH_tournament.json baseline exactly.
tournament-smoke:
	$(PYTHON) -m repro campaign tournament run \
		--strategy drop-minimum,spurious-veto --predtest truthful,deny \
		--topology line-10,grid-16 --profile none --executions 2 \
		--jobs 2 --name tournament-a --store .campaigns
	$(PYTHON) -m repro campaign tournament run \
		--strategy drop-minimum,spurious-veto --predtest truthful,deny \
		--topology line-10,grid-16 --profile none --executions 2 \
		--jobs 1 --name tournament-b --store .campaigns
	$(PYTHON) -m repro campaign compare tournament-a tournament-b \
		--store .campaigns --threshold 0
	$(PYTHON) -m repro campaign tournament report latest --store .campaigns \
		--output .bench-tournament.json
	$(PYTHON) -c "import json, sys; \
	fresh = json.load(open('.bench-tournament.json')); \
	base = json.load(open('BENCH_tournament.json')); \
	bad = [k for k in ('ranking', 'groups', 'cells_ok', 'cells_failed') \
		if fresh.get(k) != base.get(k)]; \
	print('ranking matches committed baseline' if not bad \
		else 'baseline drift in ' + ', '.join(bad)); \
	sys.exit(1 if bad else 0)"
	rm -f .bench-tournament.json

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

figures:
	$(PYTHON) -m repro fig7 --plot
	$(PYTHON) -m repro fig8 --plot
	$(PYTHON) -m repro connectivity --plot

all: test bench

clean:
	rm -rf .pytest_cache .hypothesis build *.egg-info src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
