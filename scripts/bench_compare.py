#!/usr/bin/env python3
"""Compare a fresh bench report against the committed reference.

    scripts/bench_compare.py [--fresh BENCH_engine.json]
                             [--reference BENCH_engine.json]
                             [--min-ratio 0.25]
                             [--min-abs FIELD=VALUE ...]

Reads two ldcf.bench_report.v1 files and, per result row common to both
(engine reports key rows by protocol, scale reports by size label):

  * checks deterministic fields match exactly when the bench configs are
    identical (same packets / nodes / seed / topology fingerprint) — the
    engine and the keyed topology construction are deterministic, so any
    drift in `slots`/`attempts` (engine) or `links`/`sim_slots` (scale) is
    a correctness bug, not noise;
  * checks every throughput field (`slots_per_sec`, `nodes_per_sec`) is at
    least `--min-ratio` times the reference — a generous floor that catches
    order-of-magnitude regressions without tripping on CI machine variance.

Exit status: 0 = all checks pass, 1 = regression detected, 2 = bad input.
Only the standard library is used.
"""

import argparse
import json
import sys

# Fields that must be bit-identical on the same workload, and fields that
# only need to clear the throughput floor. Rows carry a subset of these
# depending on the bench (engine vs scale).
EXACT_FIELDS = (
    "slots",
    "attempts",
    "draws",
    "links",
    "sim_slots",
    "slots_skipped",
    "interactive_slots",
    "interactive_slots_skipped",
)
RATE_FIELDS = (
    "slots_per_sec",
    "nodes_per_sec",
    "slots_per_sec_dense",
    "interactive_slots_per_sec",
    "interactive_slots_per_sec_dense",
    "channel_mdraws_per_sec",
    "series_speed_ratio",
)


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    if report.get("schema") != "ldcf.bench_report.v1":
        sys.exit(f"bench_compare: {path} is not an ldcf.bench_report.v1 file")
    return report


def row_key(row):
    return row.get("protocol") or row.get("label") or "?"


def by_key(report):
    return {row_key(row): row for row in report.get("results", [])}


def same_workload(fresh, reference):
    """Determinism checks only make sense on the identical workload."""
    if fresh.get("bench") != reference.get("bench"):
        return False
    fresh_config = dict(fresh.get("config", {}))
    ref_config = dict(reference.get("config", {}))
    for key in ("best_of", "reps"):  # repetitions affect timing only.
        fresh_config.pop(key, None)
        ref_config.pop(key, None)
    # Scale reports build their own topologies (no top-level fingerprint);
    # None == None keeps this check vacuous for them.
    same_topo = fresh.get("topology", {}).get("fingerprint") == reference.get(
        "topology", {}
    ).get("fingerprint")
    return fresh_config == ref_config and same_topo


def main():
    parser = argparse.ArgumentParser(
        description="diff a fresh bench report against the committed reference"
    )
    parser.add_argument("--fresh", default="BENCH_engine.json")
    parser.add_argument("--reference", default="BENCH_engine.json")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.25,
        help="minimum fresh/reference throughput per row (default 0.25)",
    )
    parser.add_argument(
        "--min-abs",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help=(
            "absolute floor a field must clear in every fresh row that "
            "carries it, e.g. --min-abs slots_per_sec=9000 (repeatable); "
            "unlike --min-ratio this holds even when the reference moves"
        ),
    )
    args = parser.parse_args()

    floors = {}
    for spec in args.min_abs:
        field, sep, value = spec.partition("=")
        if not sep:
            sys.exit(f"bench_compare: bad --min-abs spec {spec!r}")
        try:
            floors[field] = float(value)
        except ValueError:
            sys.exit(f"bench_compare: bad --min-abs value {spec!r}")

    fresh = load_report(args.fresh)
    reference = load_report(args.reference)
    fresh_rows = by_key(fresh)
    ref_rows = by_key(reference)
    check_exact = same_workload(fresh, reference)
    if not check_exact:
        print(
            "bench_compare: configs differ; skipping exact determinism "
            "checks (throughput floor still applies)"
        )

    shared = [name for name in ref_rows if name in fresh_rows]
    if not shared:
        sys.exit("bench_compare: no common result rows between the reports")
    missing = [name for name in ref_rows if name not in fresh_rows]
    if missing:
        print(f"bench_compare: note: fresh report lacks {', '.join(missing)}")

    failures = 0
    for name in shared:
        fresh_row = fresh_rows[name]
        ref_row = ref_rows[name]
        problems = []
        if check_exact:
            for field in EXACT_FIELDS:
                if field in fresh_row and field in ref_row:
                    if fresh_row[field] != ref_row[field]:
                        problems.append(
                            "DETERMINISM DRIFT: "
                            f"{field} {fresh_row[field]} vs {ref_row[field]}"
                        )
        rates = []
        for field in RATE_FIELDS:
            if field in fresh_row and field in ref_row:
                ratio = fresh_row[field] / ref_row[field]
                rates.append(f"{field} ratio {ratio:.2f}")
                if not problems and ratio < args.min_ratio:
                    problems.append(
                        "THROUGHPUT REGRESSION: "
                        f"{field} ratio {ratio:.3f} < {args.min_ratio}"
                    )
        for field, floor in floors.items():
            if field in fresh_row and fresh_row[field] < floor:
                problems.append(
                    "FLOOR VIOLATION: "
                    f"{field} {fresh_row[field]:.0f} < {floor:.0f}"
                )
        status = "; ".join(problems) if problems else "ok"
        if problems:
            failures += 1
        print(f"  {name:8s} {', '.join(rates)}  {status}")

    if failures:
        print(f"bench_compare: {failures} row(s) regressed")
        return 1
    print(f"bench_compare: {len(shared)} row(s) within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
