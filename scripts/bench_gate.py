#!/usr/bin/env python3
"""CI gate for the objective-engine throughput benchmark.

Compares the current ``BENCH_objective.json`` (written by
``cargo bench -p coverme-bench --bench objective_engine -- --json ...``)
against the committed baseline ``ci/bench_baseline.json`` and fails when
evaluation throughput regressed by more than the tolerance.

What is gated
-------------
CI runners differ wildly in absolute speed, so raw evals/sec cannot be
compared against a baseline recorded on another machine. What *is* stable
is throughput **normalized to the same-machine legacy path**: the speedup
ratio ``engine_speedup_vs_legacy`` divides out the machine, and a >15%
drop means the engine's evaluation path really got slower relative to the
work it wraps — the regression the gate exists to catch. Absolute
evals/sec are printed for context but never gated.

The schema-2 artifact adds an ``fpir`` table measured across the
execution-backend axis (interpreter vs compiled tape). Its ratio
``tape_speedup_vs_interp`` is gated with the same relative tolerance and
additionally carries an **absolute floor** (default 1.5x,
``--tape-floor``): the tape backend's acceptance bar is 1.5x the
interpreter on the corpus, independent of what the baseline happens to
record.

Campaign search-efficiency gate
-------------------------------
With ``--campaign-baseline`` and ``--campaign-current`` the gate also
compares a pair of campaign-report artifacts (the
``coverme-campaign-report/N`` JSON ``coverme campaign --json`` writes)
on ``coverage_per_megaeval`` — covered branches per million evaluations, the eval-budget economics headline. The metric is a
pure function of ``(seed, config)``, not of machine speed, so a >15% drop
means the search genuinely pays more evaluations per branch. The same
pair is also gated on search quality: the current artifact's summed
``covered_branches`` must not fall below the baseline's. Coverage is as
deterministic as the ratio, so any drop fails, and a coverage loss cannot
hide behind a matching cut in evaluations. The campaign pair may be gated
alone (without the objective-engine positionals) or alongside them.

Exact search-results gate
-------------------------
With ``--exact-baseline`` and ``--exact-current`` the gate compares a
pair of campaign-report artifacts function by function and fails on any
difference in ``covered_branches``, ``evals``, ``timeouts`` or ``traps``
(or in the set of functions). Every execution path of a program is
bit-identical by construction and the search is a pure function of
``(seed, config)``, so no tolerance applies: the FPIR corpus gate pins
``coverme campaign examples/fpir`` against ``ci/fpir_campaign_baseline.json``.

Exit status: 0 when every gated metric is within tolerance, 1 otherwise
(and 2 for usage/schema errors, so a malformed artifact cannot pass as
"no regression").
"""

import argparse
import json
import sys

GATED_METRICS = ("engine_speedup_vs_legacy",)
REPORTED_METRICS = (
    "legacy_evals_per_sec",
    "engine_evals_per_sec",
)

# Backend-axis ratio gated on the fpir table: relative tolerance plus the
# absolute --tape-floor.
FPIR_GATED_METRICS = ("tape_speedup_vs_interp",)
FPIR_REPORTED_METRICS = (
    "interp_evals_per_sec",
    "tape_evals_per_sec",
)

UPDATE_INSTRUCTIONS = """\
If this regression is intended (e.g. the engine traded single-path speed
for a feature) or the baseline is stale, refresh it on a quiet machine and
commit the result:

    cargo bench -p coverme-bench --bench objective_engine -- \\
        --json ci/bench_baseline.json
    git add ci/bench_baseline.json

Then explain the throughput change in the PR description. Do NOT refresh
the baseline just to silence the gate on an unexplained slowdown."""


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"bench_gate: cannot read {path}: {error}")
    if data.get("schema") not in (1, 2) or data.get("bench") != "objective_engine":
        sys.exit(f"bench_gate: {path} is not an objective_engine artifact (schema 1 or 2)")
    return data


def load_campaign(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"bench_gate: cannot read {path}: {error}")
    schema = data.get("schema", "")
    if not isinstance(schema, str) or not schema.startswith("coverme-campaign-report/"):
        sys.exit(f"bench_gate: {path} is not a coverme-campaign-report artifact")
    if "coverage_per_megaeval" not in data:
        sys.exit(
            f"bench_gate: {path} ({schema}) predates coverage_per_megaeval; "
            "refresh it with a current build"
        )
    return data


def covered_branches(data):
    """Covered branches summed over a campaign artifact's functions."""
    return sum(row["covered_branches"] for row in data["functions"])


def gate_campaign(args, failures):
    """Gates coverage_per_megaeval and covered branches on a campaign pair."""
    baseline = load_campaign(args.campaign_baseline)
    current = load_campaign(args.campaign_current)
    base_covered = covered_branches(baseline)
    covered = covered_branches(current)
    base_value = baseline["coverage_per_megaeval"]
    value = current["coverage_per_megaeval"]
    floor = base_value * (1.0 - args.tolerance)
    status = "ok" if value >= floor else "REGRESSED"
    print(
        f"bench_gate: campaign search efficiency — tolerance {args.tolerance:.0%} "
        "on coverage_per_megaeval"
    )
    print(
        f"  suite    coverage_per_megaeval      baseline {base_value:8.1f} "
        f"  current {value:8.1f}   floor {floor:8.1f}   {status}"
    )
    print(
        f"  suite    (context: coverage {current['suite_branch_coverage_percent']:.1f}% "
        f"over {current['total_evaluations']} evals; baseline "
        f"{baseline['suite_branch_coverage_percent']:.1f}% over "
        f"{baseline['total_evaluations']} evals)"
    )
    covered_status = "ok" if covered >= base_covered else "REGRESSED"
    print(
        f"  suite    covered_branches           baseline {base_covered:8d} "
        f"  current {covered:8d}   floor {base_covered:8d}   {covered_status}"
    )
    if value < floor:
        drop = 1.0 - value / base_value if base_value else 1.0
        failures.append(
            f"campaign: coverage_per_megaeval dropped {drop:.0%} "
            f"({base_value:.1f} -> {value:.1f}, floor {floor:.1f})"
        )
    if covered < base_covered:
        failures.append(
            f"campaign: covered branches fell below the baseline "
            f"({base_covered} -> {covered})"
        )


EXACT_FIELDS = ("covered_branches", "evals", "timeouts", "traps")


def gate_exact(args, failures):
    """Fails on any per-function difference in EXACT_FIELDS."""
    baseline = load_campaign(args.exact_baseline)
    current = load_campaign(args.exact_current)
    base_rows = {row["name"]: row for row in baseline["functions"]}
    rows = {row["name"]: row for row in current["functions"]}
    print(f"bench_gate: exact search results — {', '.join(EXACT_FIELDS)} per function")
    if set(base_rows) != set(rows):
        failures.append(
            f"exact: the functions differ (baseline {sorted(base_rows)}, "
            f"current {sorted(rows)})"
        )
    for name in sorted(set(base_rows) & set(rows)):
        for field in EXACT_FIELDS:
            base_value = base_rows[name].get(field)
            value = rows[name].get(field)
            status = "ok" if value == base_value else "CHANGED"
            print(
                f"  {name:<16} {field:<17} baseline {base_value!s:>9}"
                f"  current {value!s:>9}  {status}"
            )
            if value != base_value:
                failures.append(f"exact: {name} {field} changed ({base_value} -> {value})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "baseline", nargs="?", help="committed baseline (ci/bench_baseline.json)"
    )
    parser.add_argument(
        "current", nargs="?", help="freshly measured BENCH_objective.json"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed relative drop per gated metric (default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--tape-floor",
        type=float,
        default=1.5,
        help="absolute floor on tape_speedup_vs_interp for every fpir row "
        "(default 1.5 = the tape backend's acceptance bar)",
    )
    parser.add_argument(
        "--campaign-baseline",
        help="committed campaign-report baseline (ci/campaign_baseline.json)",
    )
    parser.add_argument(
        "--campaign-current",
        help="freshly produced campaign-report JSON to gate on "
        "coverage_per_megaeval",
    )
    parser.add_argument(
        "--exact-baseline",
        help="committed campaign-report baseline whose search results must "
        "repeat exactly (ci/fpir_campaign_baseline.json)",
    )
    parser.add_argument(
        "--exact-current",
        help="freshly produced campaign-report JSON to compare exactly",
    )
    args = parser.parse_args()

    if (args.campaign_baseline is None) != (args.campaign_current is None):
        parser.error("--campaign-baseline and --campaign-current come as a pair")
    if (args.exact_baseline is None) != (args.exact_current is None):
        parser.error("--exact-baseline and --exact-current come as a pair")
    if args.baseline is None and args.campaign_baseline is None and args.exact_baseline is None:
        parser.error(
            "nothing to gate: pass the objective-engine positionals, the "
            "campaign pair, the exact pair, or several"
        )
    if (args.baseline is None) != (args.current is None):
        parser.error("the objective-engine artifacts come as a pair")

    campaign_failures = []
    if args.campaign_baseline is not None:
        gate_campaign(args, campaign_failures)
    if args.exact_baseline is not None:
        gate_exact(args, campaign_failures)
    if args.baseline is None:
        if campaign_failures:
            print(
                "\nbench_gate: FAIL — campaign search efficiency, coverage or "
                "search results regressed:",
                file=sys.stderr,
            )
            for failure in campaign_failures:
                print(f"  - {failure}", file=sys.stderr)
            sys.exit(1)
        print("bench_gate: ok — no gated metric regressed beyond tolerance")
        return

    baseline = load(args.baseline)
    current = load(args.current)
    if not current.get("measured"):
        sys.exit(
            "bench_gate: current artifact was produced by a smoke run "
            "(measured: false); run the bench with --bench before gating"
        )

    baseline_rows = {row["function"]: row for row in baseline["functions"]}
    current_rows = {row["function"]: row for row in current["functions"]}

    failures = campaign_failures
    print(f"bench_gate: tolerance {args.tolerance:.0%} on {', '.join(GATED_METRICS)}")
    for name, base_row in sorted(baseline_rows.items()):
        row = current_rows.get(name)
        if row is None:
            failures.append(f"{name}: missing from the current benchmark run")
            continue
        for metric in GATED_METRICS:
            base_value = base_row[metric]
            value = row[metric]
            floor = base_value * (1.0 - args.tolerance)
            status = "ok" if value >= floor else "REGRESSED"
            print(
                f"  {name:>8} {metric:<26} baseline {base_value:6.2f}x"
                f"  current {value:6.2f}x  floor {floor:6.2f}x  {status}"
            )
            if value < floor:
                drop = 1.0 - value / base_value if base_value else 1.0
                failures.append(
                    f"{name}: {metric} dropped {drop:.0%} "
                    f"({base_value:.2f}x -> {value:.2f}x, floor {floor:.2f}x)"
                )
        context = "  ".join(
            f"{metric.split('_evals')[0]} {row[metric] / 1e6:.1f}M/s"
            for metric in REPORTED_METRICS
        )
        print(f"  {name:>8} (absolute, not gated: {context})")

    extra = sorted(set(current_rows) - set(baseline_rows))
    if extra:
        print(f"bench_gate: note: functions not in the baseline (ignored): {', '.join(extra)}")

    # Backend axis (schema 2): relative tolerance against the baseline plus
    # the absolute tape floor on every current row.
    baseline_fpir = {row["function"]: row for row in baseline.get("fpir", [])}
    current_fpir = {row["function"]: row for row in current.get("fpir", [])}
    if baseline_fpir and not current_fpir:
        failures.append("fpir table missing from the current benchmark run")
    if current_fpir:
        print(
            f"bench_gate: fpir backend axis — tolerance {args.tolerance:.0%}, "
            f"absolute tape floor {args.tape_floor:.2f}x"
        )
    for name, row in sorted(current_fpir.items()):
        base_row = baseline_fpir.get(name)
        for metric in FPIR_GATED_METRICS:
            value = row[metric]
            floor = 0.0
            if base_row is not None:
                floor = base_row[metric] * (1.0 - args.tolerance)
            floor = max(floor, args.tape_floor)
            status = "ok" if value >= floor else "REGRESSED"
            print(
                f"  {name:>12} {metric:<34} current {value:6.2f}x"
                f"  floor {floor:6.2f}x  {status}"
            )
            if value < floor:
                failures.append(
                    f"{name}: {metric} {value:.2f}x is below the floor {floor:.2f}x"
                )
        context = "  ".join(
            f"{metric.split('_evals')[0]} {row[metric] / 1e6:.1f}M/s"
            for metric in FPIR_REPORTED_METRICS
        )
        print(f"  {name:>12} (absolute, not gated: {context})")

    if failures:
        print("\nbench_gate: FAIL — evaluation throughput regressed:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(f"\n{UPDATE_INSTRUCTIONS}", file=sys.stderr)
        sys.exit(1)
    print("bench_gate: ok — no gated metric regressed beyond tolerance")


if __name__ == "__main__":
    main()
