"""Command-line interface: regenerate the paper's numbers from a shell.

::

    python -m repro fig7   [--sizes 1000 10000] [--trials 100]
    python -m repro fig8   [--synopses 100] [--trials 200]
    python -m repro comm
    python -m repro rounds [--sizes 50 100 200 400]
    python -m repro connectivity
    python -m repro demo   [--attack drop|junk|spurious-veto|hide]
                           [--nodes 40] [--seed 7]
    python -m repro campaign run [--scenario fig7 ...] [--jobs 4]
                                 [--fault-plan PLAN.json]
    python -m repro campaign resume|report|compare|validate|list
    python -m repro faults validate|describe PLAN.json
    python -m repro faults example [--profile mixed] [--seed 0]
    python -m repro service run [--nodes 25] [--processes 2]
                                [--attack drop] [--fault-plan PLAN.json]
                                [--check-equivalence]
    python -m repro service generate [--out deploy] [--nodes 25] ...
    python -m repro service node --host-index I   (internal; spec via env)
    python -m repro bench scale [--sizes 100 1000 10000]
                                [--output BENCH_scale.json]
                                [--compare BENCH_scale.json]

Every subcommand prints the same rows/series the corresponding benchmark
asserts on (see DESIGN.md §3 for the experiment index).  ``campaign``
drives the parallel sweep subsystem (docs/CAMPAIGNS.md); ``faults``
works with declarative fault plans (docs/FAULTS.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def node_count(text: str) -> int:
    """The argparse type of every ``--nodes`` flag: an int >= 2, the
    base station plus at least one sensor."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"needs the base station plus at least one sensor (>= 2), got {value}"
        )
    return value


def _print_table(title: str, header: Sequence[str], rows) -> None:
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        cells = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))


def cmd_fig7(args: argparse.Namespace) -> int:
    from .analysis import misrevocation_trials
    from .config import KeyConfig

    thetas = tuple(range(1, args.theta_max + 1))
    for n in args.sizes:
        series_by_f = {
            f: misrevocation_trials(
                n, f, thetas, trials=args.trials, key_config=KeyConfig(), seed=args.seed
            )
            for f in args.malicious
        }
        sampled = [t for t in (1, 3, 5, 7, 10, 15, 20, 25, 27, 30, 35, 40) if t <= args.theta_max]
        _print_table(
            f"Figure 7 (n={n}): avg # honest sensors mis-revoked",
            ["theta"] + [f"f={f}" for f in args.malicious],
            [[t] + [series_by_f[f].avg_misrevoked[t] for f in args.malicious] for t in sampled],
        )
        for f in args.malicious:
            safe = series_by_f[f].smallest_theta_below(1.0)
            print(f"  f={f}: smallest theta with avg mis-revocations < 1: {safe}")
        if args.plot:
            from .analysis import ascii_chart

            print()
            print(ascii_chart(
                {
                    f"f={f}": [
                        (t, series_by_f[f].avg_misrevoked[t] + 0.01) for t in thetas
                    ]
                    for f in args.malicious
                },
                title=f"Figure 7 (n={n}): avg mis-revoked vs theta (log y, +0.01)",
                log_y=True,
                x_label="theta",
                y_label="mis-revoked",
            ))
    return 0


def cmd_fig8(args: argparse.Namespace) -> int:
    from .analysis import figure8

    series = figure8(
        counts=tuple(args.counts),
        num_synopses=args.synopses,
        trials=args.trials,
        seed=args.seed,
    )
    _print_table(
        f"Figure 8: relative error of COUNT, m={args.synopses}, {args.trials} trials",
        ["count", "average", "p50", "p90", "p99"],
        [
            [c, series.average(c), series.percentile(c, 50),
             series.percentile(c, 90), series.percentile(c, 99)]
            for c in series.counts
        ],
    )
    if args.plot:
        from .analysis import ascii_chart

        print()
        print(ascii_chart(
            {
                "average": [(c, series.average(c)) for c in series.counts],
                "p90": [(c, series.percentile(c, 90)) for c in series.counts],
                "p99": [(c, series.percentile(c, 99)) for c in series.counts],
            },
            title="Figure 8: relative error vs predicate count (log x)",
            log_x=True,
            x_label="predicate count",
            y_label="rel error",
        ))
    return 0


def cmd_comm(args: argparse.Namespace) -> int:
    from .baselines import vmat_query_cost
    from .baselines.naive import NAIVE_REPORT_BYTES
    from .config import ProtocolConfig

    protocol = ProtocolConfig(num_synopses=args.synopses)
    vmat = vmat_query_cost(protocol)
    naive = args.nodes * NAIVE_REPORT_BYTES
    _print_table(
        f"Section IX communication comparison at n = {args.nodes}",
        ["scheme", "bottleneck bytes", "vs VMAT"],
        [
            [f"VMAT ({args.synopses} synopses)", vmat, 1.0],
            ["naive collect-all", naive, naive / vmat],
        ],
    )
    return 0


def cmd_rounds(args: argparse.Namespace) -> int:
    from . import MinQuery, VMATProtocol, build_deployment, small_test_config
    from .baselines import SetSamplingCostModel
    from .topology import random_geometric_topology
    from .topology.generators import recommended_radius

    model = SetSamplingCostModel()
    rows = []
    for n in args.sizes:
        topology = random_geometric_topology(n, recommended_radius(n), seed=args.seed)
        deployment = build_deployment(
            config=small_test_config(depth_bound=12), topology=topology, seed=args.seed
        )
        protocol = VMATProtocol(deployment.network)
        readings = {i: 10.0 + (i % 9) for i in topology.sensor_ids}
        result = protocol.execute(MinQuery(), readings)
        rows.append([n, result.flooding_rounds, model.flooding_rounds(n)])
    _print_table(
        "Flooding rounds per query: VMAT (O(1)) vs set-sampling [29] (Omega(log n))",
        ["n", "VMAT", "set-sampling"],
        rows,
    )
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    from .analysis import link_survival_probability, revocation_sweep
    from .config import ExperimentConfig, KeyConfig, ProtocolConfig

    keys = KeyConfig(pool_size=1_000, ring_size=60)
    config = ExperimentConfig(keys=keys, protocol=ProtocolConfig(depth_bound=12))
    fractions = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)
    series = revocation_sweep(args.nodes, fractions, config=config, trials=2, seed=args.seed)
    _print_table(
        "Secure connectivity vs fraction of the key pool revoked",
        ["pool revoked", "connected share", "link survival (paper keys)"],
        [
            [phi, series.connected_share[phi], link_survival_probability(KeyConfig(), phi)]
            for phi in fractions
        ],
    )
    if args.plot:
        from .analysis import ascii_chart

        print()
        print(ascii_chart(
            {
                "connected": [(phi, series.connected_share[phi]) for phi in fractions],
                "link surv.": [
                    (phi, link_survival_probability(KeyConfig(), phi))
                    for phi in fractions
                ],
            },
            title="Connectivity collapse under mass revocation",
            x_label="fraction of pool revoked",
            y_label="share",
        ))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Generate a reduced-scale markdown reproduction report."""
    from io import StringIO

    from . import MinQuery, VMATProtocol, build_deployment, small_test_config
    from .adversary import Adversary, DropMinimumStrategy
    from .analysis import figure8, misrevocation_trials
    from .baselines import AlarmOnlyProtocol, SetSamplingCostModel, vmat_query_cost
    from .baselines.naive import NAIVE_REPORT_BYTES
    from .config import KeyConfig, ProtocolConfig
    from .topology import grid_topology

    out = StringIO()
    out.write("# VMAT reproduction report (reduced scale)\n\n")
    out.write(f"trials: fig7={args.trials}, fig8={args.trials * 2}\n\n")

    out.write("## Figure 7 — mis-revocation vs theta\n\n")
    out.write("| n | f | smallest safe theta (avg < 1) |\n|---|---|---|\n")
    for n in (1_000, 10_000):
        for f in (1, 20):
            series = misrevocation_trials(
                n, f, range(1, 41), trials=args.trials, key_config=KeyConfig(),
                seed=args.seed,
            )
            out.write(f"| {n} | {f} | {series.smallest_theta_below(1.0)} |\n")
    out.write("\npaper: theta ~ 7 at f=1, theta = 27 at f=20/n=10k\n\n")

    out.write("## Figure 8 — COUNT approximation error (m=100)\n\n")
    series = figure8(
        counts=(10, 100, 1_000, 10_000), trials=args.trials * 2, seed=args.seed
    )
    out.write("| count | average | p90 |\n|---|---|---|\n")
    for count in series.counts:
        out.write(
            f"| {count} | {series.average(count):.3f} | "
            f"{series.percentile(count, 90):.3f} |\n"
        )
    out.write("\npaper: average below 10%\n\n")

    out.write("## Communication (Section IX)\n\n")
    vmat_bytes = vmat_query_cost(ProtocolConfig())
    naive = 10_000 * NAIVE_REPORT_BYTES
    out.write(
        f"VMAT: {vmat_bytes} B; naive at n=10,000: {naive} B "
        f"({naive / vmat_bytes:.0f}x)\n\n"
    )

    out.write("## Liveness (Theorem 7 vs alarm-only)\n\n")
    dep = build_deployment(
        config=small_test_config(depth_bound=10),
        topology=grid_topology(4, 4),
        malicious_ids={11, 14},
        seed=args.seed,
    )
    adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=args.seed)
    alarm = AlarmOnlyProtocol(dep.network, adversary=adv)
    readings = {i: 50.0 + i for i in dep.topology.sensor_ids}
    readings[15] = 2.0
    alarm_session = alarm.run_session(MinQuery(), readings, max_executions=10)
    dep = build_deployment(
        config=small_test_config(depth_bound=10),
        topology=grid_topology(4, 4),
        malicious_ids={11, 14},
        seed=args.seed,
    )
    adv = Adversary(dep.network, DropMinimumStrategy(predtest="deny"), seed=args.seed)
    vmat = VMATProtocol(dep.network, adversary=adv)
    vmat_session = vmat.run_session(MinQuery(), readings, max_executions=300)
    out.write(
        f"alarm-only: {'stalled' if alarm_session.stalled else 'answered'} "
        f"after {len(alarm_session.executions)} tries; "
        f"VMAT answered after {vmat_session.executions_until_result} executions "
        f"({vmat_session.total_revocations} revocation events)\n\n"
    )

    model = SetSamplingCostModel()
    out.write("## Rounds\n\n")
    out.write(
        f"VMAT happy path: 5 flooding rounds (constant); "
        f"set-sampling [29] at n=10,000: {model.flooding_rounds(10_000)}\n"
    )

    text = out.getvalue()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


_ATTACKS = {
    "drop": ("DropMinimumStrategy", dict(predtest="deny")),
    "junk": ("JunkMinimumStrategy", {}),
    "spurious-veto": ("SpuriousVetoStrategy", {}),
    "hide": ("HideAndVetoStrategy", {}),
}


def cmd_demo(args: argparse.Namespace) -> int:
    from . import MinQuery, VMATProtocol, build_deployment
    from . import adversary as adversary_module

    deployment = build_deployment(
        num_nodes=args.nodes, seed=args.seed, malicious_ids=set(args.compromised)
    )
    strategy_name, kwargs = _ATTACKS[args.attack]
    strategy = getattr(adversary_module, strategy_name)(**kwargs)
    adversary = adversary_module.Adversary(deployment.network, strategy, seed=args.seed)
    protocol = VMATProtocol(deployment.network, adversary=adversary)
    readings = {i: 100.0 + i for i in deployment.topology.sensor_ids}
    readings[max(deployment.topology.sensor_ids)] = 1.0

    tracer = None
    if args.trace:
        from .tracing import Tracer

        tracer = Tracer.attach(deployment.network)

    session = protocol.run_session(MinQuery(), readings, max_executions=300)
    print(f"attack: {args.attack}, compromised: {sorted(args.compromised)}")
    for index, execution in enumerate(session.executions, start=1):
        if execution.produced_result:
            print(f"execution {index}: MIN = {execution.estimate}")
        else:
            print(
                f"execution {index}: {execution.outcome.value} -> "
                f"{len(execution.revocations)} revocation event(s)"
            )
    print(f"revoked sensors: {sorted(deployment.registry.revoked_sensors)}")
    print(f"revoked keys: {len(deployment.registry.revoked_keys)}")
    if tracer is not None:
        tracer.save(args.trace)
        print(
            f"trace: {len(tracer)} events -> {args.trace} "
            "(check with: repro invariants check --trace)"
        )
    return 0


# ----------------------------------------------------------------------
# invariants / fuzz — the machine-checked catalog (repro.invariants)
# ----------------------------------------------------------------------

def cmd_invariants_list(args: argparse.Namespace) -> int:
    from .invariants import EXECUTION_INVARIANTS, STORE_INVARIANTS

    print("execution-scope invariants (online monitor + trace files):")
    for inv in EXECUTION_INVARIANTS:
        print(f"  {inv.name:28s} {inv.section}")
        print(f"  {'':28s}   {inv.description}")
    print("store-scope invariants (campaign result stores):")
    for inv in STORE_INVARIANTS:
        scenario = inv.scenario or "all scenarios"
        print(f"  {inv.name:28s} [{scenario}] {inv.section}")
        print(f"  {'':28s}   {inv.description}")
    return 0


def cmd_invariants_check(args: argparse.Namespace) -> int:
    from .campaign import ResultStore
    from .invariants import check_store, check_trace_file

    failed = False
    if args.trace:
        for path in args.trace:
            checked, violations = check_trace_file(path)
            status = "OK" if not violations else f"{len(violations)} VIOLATION(S)"
            print(f"trace {path}: {checked} execution(s), {status}")
            for violation in violations:
                print(f"  {violation}")
                failed = True
    if args.store or not args.trace:
        store_root = args.store or "stores/ci"
        store = ResultStore(store_root)
        run_ids = args.run if args.run else None
        results = check_store(store, run_ids=run_ids)
        if not results:
            print(f"store {store_root}: no runs found")
            return 1
        for run_id, (records, violations) in sorted(results.items()):
            status = "OK" if not violations else f"{len(violations)} VIOLATION(S)"
            print(f"run {run_id}: {records} record(s), {status}")
            for violation in violations:
                print(f"  {violation}")
                failed = True
    return 1 if failed else 0


def cmd_invariants_mutants(args: argparse.Namespace) -> int:
    from .invariants import mutation_smoke

    names = args.mutant if args.mutant else None
    reports = mutation_smoke(seed=args.seed, names=names)
    survived = False
    for report in reports:
        if report.passed:
            caught = ", ".join(report.caught_by)
            print(f"{report.name}: CAUGHT by {caught}")
        else:
            survived = True
            if not report.baseline_clean:
                print(f"{report.name}: BASELINE DIRTY (provocation trips the "
                      "catalog without the mutation — fix the scenario)")
            else:
                expected = ", ".join(report.expected)
                print(f"{report.name}: SURVIVED (expected {expected}; outcomes "
                      f"{list(report.outcomes)})")
    if survived:
        print("mutation smoke-check FAILED: the catalog has a blind spot")
        return 1
    print(f"all {len(reports)} planted mutants caught")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .invariants import fuzz as run_fuzz
    from .invariants import replay_repro

    if args.replay:
        try:
            violations, expected = replay_repro(args.replay)
        except ReproError as exc:
            print(f"REPLAY FAILED  {exc}")
            return 1
        got = sorted({v.invariant for v in violations})
        print(f"replay {args.replay}: expected {expected}, got {got}")
        for violation in violations:
            print(f"  {violation}")
        if set(expected) <= set(got):
            print("replay reproduces the recorded violation(s)")
            return 0
        print("replay DIVERGED from the recorded violation(s)")
        return 1

    report = run_fuzz(
        args.seed,
        args.trials,
        mutant=args.mutant,
        repro_dir=args.repro_dir,
        do_shrink=not args.no_shrink,
    )
    tag = f" against mutant {args.mutant!r}" if args.mutant else ""
    print(f"fuzzed {report.configs_run} config(s) from seed {args.seed}{tag}")
    for trial, config, violations in report.findings:
        violated = sorted({v.invariant for v in violations})
        print(f"trial {trial}: {violated} with {config.to_dict()}")
    for path in report.repro_paths:
        print(f"repro written: {path}")
    if args.mutant:
        # Hunting a planted bug: the fuzzer must find it.
        if report.clean:
            print(f"FAIL: mutant {args.mutant!r} survived {args.trials} trials")
            return 1
        print("mutant found by the fuzzer")
        return 0
    if report.clean:
        print("no invariant violations found")
        return 0
    return 1


# ----------------------------------------------------------------------
# campaign — the parallel sweep subsystem (repro.campaign)
# ----------------------------------------------------------------------

def _campaign_spec_from_args(args: argparse.Namespace):
    from .campaign import CampaignSpec, ScenarioSpec, get_scenario

    if args.spec:
        with open(args.spec) as handle:
            spec = CampaignSpec.from_json(handle.read())
    else:
        scenarios = []
        for name in args.scenario or ["fig7"]:
            scn = get_scenario(name)
            scenarios.append(
                ScenarioSpec(scenario=name, grid=scn.default_grid(reduced=not args.full))
            )
        spec = CampaignSpec(
            name=args.name,
            scenarios=tuple(scenarios),
            seed=args.seed,
            replicates=args.replicates,
            cell_timeout=args.timeout,
        )
    return _with_fault_plan(spec, getattr(args, "fault_plan", None))


def _with_fault_plan(spec, plan_path: Optional[str]):
    """Thread a validated fault plan into every scenario's grid.

    The plan rides as a ``fault_plan`` axis holding its canonical JSON
    (a single string scalar), so it participates in the spec hash and
    per-cell seed derivation like any other parameter — same plan, same
    cells, same numbers.
    """
    if not plan_path:
        return spec
    from .campaign import CampaignSpec, ScenarioSpec
    from .faults import FaultPlan
    from .seeding import canonical_json

    with open(plan_path) as handle:
        plan = FaultPlan.from_json(handle.read())
    plan_str = canonical_json(plan.to_dict())
    scenarios = tuple(
        ScenarioSpec(scenario=s.scenario, grid={**s.grid, "fault_plan": (plan_str,)})
        for s in spec.scenarios
    )
    return CampaignSpec(
        name=spec.name,
        scenarios=scenarios,
        seed=spec.seed,
        replicates=spec.replicates,
        cell_timeout=spec.cell_timeout,
        imports=spec.imports,
    )


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, run_campaign

    spec = _campaign_spec_from_args(args)
    store = ResultStore(args.store)
    result = run_campaign(spec, store, jobs=args.jobs, progress=print)
    print(
        f"run {result.run_id}: {result.completed} executed, {result.skipped} resumed, "
        f"{result.failed} failed in {result.wall_time_s:.2f}s "
        f"({result.cells_per_sec:.3g} cells/s at --jobs {args.jobs})"
    )
    if result.interrupted:
        return 130
    return 0 if result.failed == 0 else 1


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, resume_campaign

    store = ResultStore(args.store)
    run = store.get_run(args.run_id)
    result = resume_campaign(run, store, jobs=args.jobs, progress=print)
    print(
        f"run {result.run_id}: {result.completed} executed, {result.skipped} resumed, "
        f"{result.failed} failed in {result.wall_time_s:.2f}s"
    )
    if result.interrupted:
        return 130
    return 0 if result.failed == 0 else 1


def cmd_campaign_report(args: argparse.Namespace) -> int:
    import json

    from .campaign import ResultStore, bench_payload, render_report, summarize_run

    store = ResultStore(args.store)
    summary = summarize_run(store.get_run(args.run_id))
    print(render_report(summary))
    if args.output:
        baseline = None
        if args.baseline:
            baseline = summarize_run(store.get_run(args.baseline))
        with open(args.output, "w") as handle:
            json.dump(bench_payload(summary, baseline), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nbench payload written to {args.output}")
    return 0


def cmd_campaign_compare(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, compare_runs

    store = ResultStore(args.store)
    report = compare_runs(
        store.get_run(args.base_run), store.get_run(args.new_run), threshold=args.threshold
    )
    print(report.render())
    return 0 if report.passed else 1


def _split_axis(values: Optional[List[str]]) -> Optional[List[str]]:
    """Flatten repeatable/comma-separated axis arguments."""
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out or None


def cmd_campaign_tournament_run(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, build_tournament_spec, run_campaign

    spec = build_tournament_spec(
        strategies=_split_axis(args.strategy),
        predtests=_split_axis(args.predtest) or ["truthful", "deny"],
        topologies=_split_axis(args.topology) or ["line-10", "grid-16"],
        profiles=_split_axis(args.profile) or ["none"],
        executions=args.executions,
        name=args.name,
        seed=args.seed,
        replicates=args.replicates,
        cell_timeout=args.timeout,
    )
    store = ResultStore(args.store)
    result = run_campaign(spec, store, jobs=args.jobs, progress=print)
    print(
        f"run {result.run_id}: {result.completed} executed, {result.skipped} resumed, "
        f"{result.failed} failed in {result.wall_time_s:.2f}s "
        f"({result.cells_per_sec:.3g} cells/s at --jobs {args.jobs})"
    )
    if result.interrupted:
        return 130
    return 0 if result.failed == 0 else 1


def cmd_campaign_tournament_report(args: argparse.Namespace) -> int:
    import json

    from .campaign import (
        ResultStore,
        rank_run,
        render_ranking,
        summarize_run,
        tournament_bench_payload,
    )

    store = ResultStore(args.store)
    run = store.get_run(args.run_id)
    summary = summarize_run(run)
    rows = rank_run(run)
    print(render_ranking(rows))
    print(
        f"\nrun {summary['run_id']}: {summary['cells_ok']} ok, "
        f"{summary['cells_failed']} failed (invariants enforced per cell)"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(tournament_bench_payload(summary, rows), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"bench payload written to {args.output}")
    return 0 if summary.get("cells_failed") == 0 else 1


def cmd_campaign_validate(args: argparse.Namespace) -> int:
    from .campaign import ResultStore

    store = ResultStore(args.store)
    run = store.get_run(args.run_id)
    problems = run.validate()
    if problems:
        for problem in problems:
            print(f"INVALID  {problem}")
        return 1
    records = run.load_results()
    print(f"run {run.run_id} is valid ({len(records)} records)")
    return 0


def cmd_campaign_list(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, available_scenarios

    store = ResultStore(args.store)
    runs = store.list_runs()
    if not runs:
        print(f"no runs in {args.store}")
    for run in runs:
        manifest = run.read_manifest()
        print(
            f"{run.run_id}  status={manifest.get('status')}  "
            f"cells={manifest.get('cells_ok', '?')}/{manifest.get('cells_total', '?')}  "
            f"created={manifest.get('created_at')}"
        )
    print(f"\nscenarios: {', '.join(available_scenarios())}")
    return 0


# ----------------------------------------------------------------------
# faults — declarative fault plans (repro.faults)
# ----------------------------------------------------------------------

def cmd_faults(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .faults import FaultPlan, chaos_plan

    if args.faults_command == "example":
        try:
            plan = chaos_plan(
                args.profile, args.nodes, args.depth_bound, args.seed,
                executions=args.executions,
            )
        except ReproError as exc:
            print(f"ERROR  {exc}")
            return 1
        text = plan.to_json() + "\n"
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"plan {plan.name!r} written to {args.output}")
        else:
            print(text, end="")
        return 0

    try:
        with open(args.plan) as handle:
            plan = FaultPlan.from_json(handle.read())
    except (ReproError, OSError) as exc:
        print(f"INVALID  {args.plan}: {exc}")
        return 1
    if args.faults_command == "validate":
        print(
            f"plan {plan.name!r} is valid: {len(plan.events)} event(s), "
            f"hash {plan.plan_hash()[:12]}, horizon {plan.horizon()} interval(s)"
        )
        return 0
    print(plan.describe())
    return 0


def cmd_bench_scale(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .perf.scale import SCALE_SIZES, compare_scale_payloads, run_scale_bench

    sizes = tuple(args.sizes) if args.sizes else SCALE_SIZES
    try:
        report = run_scale_bench(
            sizes=sizes,
            progress=(None if args.quiet else lambda line: print(f"  {line}")),
        )
    except ReproError as exc:
        print(f"SCALE BENCH FAILED  {exc}")
        return 1
    print(report.render())
    payload = report.payload()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nscale payload written to {args.output}")
    if args.compare:
        try:
            with open(args.compare) as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"ERROR  cannot read baseline {args.compare}: {exc}")
            return 1
        comparison = compare_scale_payloads(baseline, payload, threshold=args.threshold)
        print()
        print(comparison.render())
        if not comparison.passed:
            return 1
    return 0


def _add_bench_parser(sub) -> None:
    p = sub.add_parser("bench", help="whole-execution benchmarks")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    scale = bsub.add_parser(
        "scale",
        help="whole-execution scale sweep (100/1k/10k-node topologies)",
    )
    scale.add_argument("--sizes", type=int, nargs="+", default=None,
                       metavar="N", help="node counts to sweep (default 100 1000 10000)")
    scale.add_argument("--output", type=str, default=None, metavar="BENCH_scale.json",
                       help="write the JSON payload here")
    scale.add_argument("--compare", type=str, default=None, metavar="BASELINE.json",
                       help="gate speedup ratios against a recorded payload")
    scale.add_argument("--threshold", type=float, default=0.5,
                       help="max tolerated relative speedup drop (default 0.5)")
    scale.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    scale.set_defaults(func=cmd_bench_scale)


def _add_faults_parser(sub) -> None:
    faults = sub.add_parser("faults", help="declarative fault-plan tools")
    fsub = faults.add_subparsers(dest="faults_command", required=True)

    p = fsub.add_parser("validate", help="parse + validate a plan file")
    p.add_argument("plan", help="FaultPlan JSON file")
    p.set_defaults(func=cmd_faults)

    p = fsub.add_parser("describe", help="human-readable plan summary")
    p.add_argument("plan", help="FaultPlan JSON file")
    p.set_defaults(func=cmd_faults)

    p = fsub.add_parser("example", help="emit a deterministic preset chaos plan")
    p.add_argument("--profile", type=str, default="mixed",
                   help="crash | partition | burst | clock | mixed")
    p.add_argument("--nodes", type=node_count, default=17,
                   help="total node count including the base station")
    p.add_argument("--depth-bound", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--executions", type=int, default=2,
                   help="executions the plan's event horizon should cover")
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_faults)


def _service_spec_from_args(args):
    from .faults.plan import FaultPlan
    from .service import ServiceSpec

    if getattr(args, "spec", None):
        with open(args.spec) as handle:
            return ServiceSpec.from_json(handle.read())
    fault_plan = None
    if getattr(args, "fault_plan", None):
        with open(args.fault_plan) as handle:
            fault_plan = FaultPlan.from_json(handle.read()).to_json()
    return ServiceSpec(
        num_nodes=args.nodes,
        seed=args.seed,
        processes=args.processes,
        malicious_ids=tuple(sorted(set(args.compromised or ()))),
        depth_bound=args.depth_bound,
        theta=args.theta,
        tree_variant=args.tree_variant,
        multipath=args.multipath,
        fault_plan=fault_plan,
        fault_seed=args.fault_seed,
        metrics_dir=args.metrics_dir,
        control_timeout_s=args.control_timeout,
        detection_window_s=args.detection_window,
        heartbeat_interval_s=args.heartbeat_interval,
        restart_budget=args.restart_budget,
    )


def cmd_service_run(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service import run_equivalence, run_service_session

    if args.check_equivalence and args.external_hosts:
        print("ERROR  --check-equivalence implies a loopback deployment; "
              "drop --external-hosts")
        return 1
    try:
        spec = _service_spec_from_args(args)
        report = None
        if args.check_equivalence:
            report = run_equivalence(
                spec, query_name=args.query, attack=args.attack,
                max_executions=args.max_executions,
            )
            result = report.service
        else:
            result = run_service_session(
                spec, query_name=args.query, attack=args.attack,
                max_executions=args.max_executions,
                external_hosts=args.external_hosts,
            )
    except ReproError as exc:
        print(f"SERVICE RUN FAILED  {exc}")
        return 1

    print(f"\n=== service run: {spec.num_nodes} nodes over "
          f"{spec.processes} host process(es) ===")
    print(f"query: {args.query}   attack: {args.attack or 'none'}   "
          f"faults: {'yes' if spec.fault_plan else 'no'}")
    print(f"estimate: {result.estimate}")
    print(f"executions: {result.num_executions}  "
          f"(outcomes: {', '.join(result.outcomes)})")
    if result.revocations:
        revs = ", ".join(f"{kind}:{target}" for kind, target, _ in result.revocations)
        print(f"revocations: {revs}")
    else:
        print("revocations: none")
    print(f"wire: {result.metrics.wire_bytes} bytes / "
          f"{result.metrics.wire_frames} records")
    if result.latency:
        _print_table(
            "wall-clock latency (seconds)",
            ["phase", "samples", "p50", "p95", "p99"],
            [
                [label, len(result.metrics.wall_clock[label]),
                 pcts["p50"], pcts["p95"], pcts["p99"]]
                for label, pcts in sorted(result.latency.items())
            ],
        )
    if report is not None:
        if report.matches:
            print("\nequivalence vs in-process simulator: MATCH")
        else:
            print("\nequivalence vs in-process simulator: MISMATCH")
            for diff in report.diffs:
                print(f"  - {diff}")
            return 1
    return 0


def cmd_service_generate(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service import generate_deployment

    try:
        spec = _service_spec_from_args(args)
        written = generate_deployment(spec, args.out)
    except ReproError as exc:
        print(f"SERVICE GENERATE FAILED  {exc}")
        return 1
    for path, description in written.items():
        print(f"wrote {path}  ({description})")
    return 0


def cmd_service_chaos(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .service import ChaosPlan, run_chaos, seeded_chaos_plan

    try:
        spec = _service_spec_from_args(args)
        if args.plan:
            with open(args.plan) as handle:
                plan = ChaosPlan.from_dict(json.load(handle))
        else:
            plan = seeded_chaos_plan(
                spec, seed=args.chaos_seed, profile=args.profile
            )
        report = run_chaos(
            spec, plan, query_name=args.query, attack=args.attack,
            max_executions=args.max_executions,
        )
    except ReproError as exc:
        print(f"SERVICE CHAOS FAILED  {exc}")
        return 1

    outcome = report.outcome
    print(f"\n=== service chaos: plan {plan.name!r} over "
          f"{spec.processes} host process(es) ===")
    print(f"schedule: {len(plan.kills)} kill(s), {len(plan.resets)} reset(s), "
          f"{len(plan.refusals)} refusal(s)")
    print(f"estimate: {outcome['estimate']}   "
          f"outcomes: {', '.join(outcome['outcomes'])}")
    print(f"restarts: {outcome['restarts'] or 'none'}   "
          f"degraded hosts: {outcome['degraded_hosts'] or 'none'}")
    for item in outcome["retry_trace"]:
        print(f"  trace: {' '.join(str(part) for part in item)}")
    safety = outcome["honest_node_safety"]
    print(f"honest-node-safety: {'ok' if safety['ok'] else 'VIOLATED'}")
    for violation in safety["violations"]:
        print(f"  ! {violation}")
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(outcome, handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0 if report.safe else 1


def cmd_service_node(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service import ServiceSpec, run_node_host

    try:
        spec = ServiceSpec.from_env()
        return run_node_host(spec, args.host_index)
    except ReproError as exc:
        print(f"SERVICE NODE FAILED  {exc}", file=sys.stderr)
        return 1


def _add_service_parser(sub) -> None:
    service = sub.add_parser(
        "service",
        help="node processes over asyncio TCP (docs/SERVICE.md)",
    )
    ssub = service.add_subparsers(dest="service_command", required=True)

    def spec_args(p):
        p.add_argument("--spec", type=str, default=None,
                       help="ServiceSpec JSON file (overrides the flags below)")
        p.add_argument("--nodes", type=node_count, default=25,
                       help="total node count including the base station")
        p.add_argument("--processes", type=int, default=2,
                       help="node-host OS processes sharing the sensors")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--compromised", type=int, nargs="+", default=[],
                       help="malicious sensor ids (coordinator-side)")
        p.add_argument("--depth-bound", type=int, default=6)
        p.add_argument("--theta", type=int, default=None,
                       help="revocation threshold override")
        p.add_argument("--tree-variant", choices=["timestamp", "hopcount"],
                       default="timestamp")
        p.add_argument("--multipath", action="store_true")
        p.add_argument("--fault-plan", type=str, default=None,
                       help="FaultPlan JSON file (service-replayable kinds only)")
        p.add_argument("--fault-seed", type=int, default=0)
        p.add_argument("--metrics-dir", type=str, default=None,
                       help="hosts flush metrics JSON here on shutdown/SIGTERM")
        p.add_argument("--control-timeout", type=float, default=60.0,
                       help="end-to-end control exchange timeout, seconds "
                            "(env override: REPRO_SERVICE_TIMEOUT)")
        p.add_argument("--detection-window", type=float, default=10.0,
                       help="heartbeat silence that declares a host "
                            "unresponsive, seconds")
        p.add_argument("--heartbeat-interval", type=float, default=0.5,
                       help="host keep-alive period on the control channel, "
                            "seconds")
        p.add_argument("--restart-budget", type=int, default=1,
                       help="restarts allowed per host before it is degraded "
                            "to benign crash faults")

    p = ssub.add_parser(
        "run", help="launch a loopback deployment and run one query session"
    )
    spec_args(p)
    p.add_argument("--query", choices=["min", "max"], default="min")
    p.add_argument("--attack",
                   choices=["drop", "hide", "junk", "spurious-veto"],
                   default=None)
    p.add_argument("--max-executions", type=int, default=50)
    p.add_argument("--check-equivalence", action="store_true",
                   help="also run the in-process simulator leg and gate on "
                        "bit-identical protocol outcomes")
    p.add_argument("--external-hosts", action="store_true",
                   help="accept externally-started hosts (compose) instead "
                        "of spawning children")
    p.set_defaults(func=cmd_service_run)

    p = ssub.add_parser(
        "generate", help="emit docker-compose / Procfile deployment artifacts"
    )
    spec_args(p)
    p.add_argument("--out", type=str, default="deploy",
                   help="output directory (default deploy/)")
    p.set_defaults(func=cmd_service_generate)

    p = ssub.add_parser(
        "chaos",
        help="inject seeded process/transport failures into a session and "
             "check the resilience contract (docs/SERVICE.md)",
    )
    spec_args(p)
    p.add_argument("--query", choices=["min", "max"], default="min")
    p.add_argument("--attack",
                   choices=["drop", "hide", "junk", "spurious-veto"],
                   default=None)
    p.add_argument("--max-executions", type=int, default=50)
    p.add_argument("--profile",
                   choices=["kill", "stop", "reset", "flaky", "mixed"],
                   default="kill",
                   help="failure family the seeded plan draws from")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="plan derivation seed (same seed => same plan)")
    p.add_argument("--plan", type=str, default=None,
                   help="ChaosPlan JSON file (overrides --profile/--chaos-seed)")
    p.add_argument("--output", type=str, default=None,
                   help="write the canonical outcome JSON here (CI diffs it)")
    p.set_defaults(func=cmd_service_chaos)

    p = ssub.add_parser(
        "node",
        help="run one node host (internal; spec from REPRO_SERVICE_SPEC)",
    )
    p.add_argument("--host-index", type=int, required=True)
    p.set_defaults(func=cmd_service_node)


def _add_campaign_parser(sub) -> None:
    campaign = sub.add_parser("campaign", help="parallel experiment campaigns")
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    def common(p, jobs: bool = True):
        p.add_argument("--store", type=str, default=".campaigns",
                       help="result store root (default .campaigns)")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes (1 = inline)")

    p = csub.add_parser("run", help="run (or resume) a campaign spec")
    p.add_argument("--scenario", action="append",
                   help="registered scenario name; repeatable (default fig7)")
    p.add_argument("--spec", type=str, default=None,
                   help="JSON CampaignSpec file (overrides --scenario)")
    p.add_argument("--name", type=str, default="campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1,
                   help="independent seeds per grid point")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-cell time budget in seconds (0 = none)")
    p.add_argument("--full", action="store_true",
                   help="use the paper-scale grids instead of the reduced ones")
    p.add_argument("--fault-plan", type=str, default=None,
                   help="FaultPlan JSON file injected into every scenario "
                        "as a 'fault_plan' grid axis (see docs/FAULTS.md)")
    common(p)
    p.set_defaults(func=cmd_campaign_run)

    p = csub.add_parser("resume", help="continue an interrupted run")
    p.add_argument("run_id", help="run id, or 'latest'")
    common(p)
    p.set_defaults(func=cmd_campaign_resume)

    p = csub.add_parser("report", help="aggregate one run (mean ± stderr)")
    p.add_argument("run_id", help="run id, or 'latest'")
    p.add_argument("--output", type=str, default=None,
                   help="also write a BENCH_campaign.json payload here")
    p.add_argument("--baseline", type=str, default=None,
                   help="baseline run id for the speedup figure in --output")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_report)

    p = csub.add_parser("compare", help="regression-compare two runs")
    p.add_argument("base_run")
    p.add_argument("new_run")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="relative mean shift that counts as a regression")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_compare)

    p = csub.add_parser("validate", help="integrity-check a run's store")
    p.add_argument("run_id", help="run id, or 'latest'")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_validate)

    p = csub.add_parser("list", help="list runs and registered scenarios")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_list)

    tournament = csub.add_parser(
        "tournament",
        help="adversary-zoo tournaments (invariant-gated cells, "
             "damage-per-detection-latency ranking)",
    )
    tsub = tournament.add_subparsers(dest="tournament_command", required=True)

    p = tsub.add_parser("run", help="run a strategy x predtest x topology x fault grid")
    p.add_argument("--strategy", action="append",
                   help="zoo strategy name(s), repeatable or comma-separated "
                        "(default: the full zoo)")
    p.add_argument("--predtest", action="append",
                   help="predicate-test policies (default truthful,deny)")
    p.add_argument("--topology", action="append",
                   help="topologies (default line-10,grid-16)")
    p.add_argument("--profile", action="append",
                   help="fault profiles: none and/or quiet (default none)")
    p.add_argument("--executions", type=int, default=3,
                   help="protocol executions per cell (default 3)")
    p.add_argument("--name", type=str, default="tournament")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-cell time budget in seconds (0 = none)")
    common(p)
    p.set_defaults(func=cmd_campaign_tournament_run)

    p = tsub.add_parser("report", help="damage-per-detection-latency ranking for a run")
    p.add_argument("run_id", help="run id, or 'latest'")
    p.add_argument("--output", type=str, default=None,
                   help="also write a BENCH_tournament.json payload here")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_tournament_report)

    p = tsub.add_parser("compare", help="zero-tolerance run-to-run comparison")
    p.add_argument("base_run")
    p.add_argument("new_run")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="relative mean shift tolerated (default 0: bit-identical)")
    common(p, jobs=False)
    p.set_defaults(func=cmd_campaign_compare)


def _add_invariants_parser(sub) -> None:
    invariants = sub.add_parser(
        "invariants", help="machine-checked VMAT security invariants"
    )
    isub = invariants.add_subparsers(dest="invariants_command", required=True)

    p = isub.add_parser("list", help="show the invariant catalog with paper anchors")
    p.set_defaults(func=cmd_invariants_list)

    p = isub.add_parser(
        "check", help="check trace files and/or campaign result stores"
    )
    p.add_argument("--trace", action="append", metavar="TRACE.jsonl",
                   help="tracer JSONL file (repeatable; see 'repro demo --trace')")
    p.add_argument("--store", type=str, default=None,
                   help="campaign store root (default stores/ci when no --trace)")
    p.add_argument("--run", action="append", metavar="RUN_ID",
                   help="restrict the store audit to these runs (default: all)")
    p.set_defaults(func=cmd_invariants_check)

    p = isub.add_parser(
        "mutants",
        help="mutation smoke-check: planted protocol weakenings must be caught",
    )
    p.add_argument("--mutant", action="append",
                   help="check only this planted mutant (repeatable; default all)")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_invariants_mutants)


def _add_fuzz_parser(sub) -> None:
    p = sub.add_parser(
        "fuzz",
        help="seeded adversary fuzzer: random-walk attacks x faults x topologies",
    )
    p.add_argument("--trials", type=int, default=25,
                   help="seeded configs to run (default 25)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--mutant", type=str, default=None,
                   help="hunt a planted weakening (exit 1 if it survives)")
    p.add_argument("--repro-dir", type=str, default=None,
                   help="write shrunken JSON repros for any finding here")
    p.add_argument("--no-shrink", action="store_true",
                   help="report raw findings without shrinking")
    p.add_argument("--replay", type=str, default=None, metavar="REPRO.json",
                   help="re-run a saved repro instead of fuzzing")
    p.set_defaults(func=cmd_fuzz)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VMAT (ICDCS 2011) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig7", help="Figure 7: mis-revocation vs theta")
    p.add_argument("--sizes", type=int, nargs="+", default=[1_000, 10_000])
    p.add_argument("--malicious", type=int, nargs="+", default=[1, 5, 10, 20])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--theta-max", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig8", help="Figure 8: COUNT approximation error")
    p.add_argument("--counts", type=int, nargs="+",
                   default=[10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000])
    p.add_argument("--synopses", type=int, default=100)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser("comm", help="Section IX byte comparison")
    p.add_argument("--nodes", type=node_count, default=10_000)
    p.add_argument("--synopses", type=int, default=100)
    p.set_defaults(func=cmd_comm)

    p = sub.add_parser("rounds", help="flooding rounds vs network size")
    p.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400])
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_rounds)

    p = sub.add_parser("connectivity", help="mass-revocation collapse")
    p.add_argument("--nodes", type=node_count, default=120)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--plot", action="store_true", help="render an ASCII chart")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("report", help="markdown reproduction report (reduced scale)")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("demo", help="attacked session walkthrough")
    p.add_argument("--attack", choices=sorted(_ATTACKS), default="drop")
    p.add_argument("--nodes", type=node_count, default=40)
    p.add_argument("--compromised", type=int, nargs="+", default=[5])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--trace", type=str, default=None, metavar="TRACE.jsonl",
                   help="save the session's event trace as JSONL "
                        "(re-checkable via 'repro invariants check --trace')")
    p.set_defaults(func=cmd_demo)

    _add_campaign_parser(sub)
    _add_faults_parser(sub)
    _add_service_parser(sub)
    _add_bench_parser(sub)
    _add_invariants_parser(sub)
    _add_fuzz_parser(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"ERROR  {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
