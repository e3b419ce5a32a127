#!/usr/bin/env python3
"""Compare bench --json output against committed baselines.

The perf-regression gate (docs/perf.md "Perf regression gates"): each
micro-benchmark's machine-readable output is compared metric-by-metric
against bench/baselines/<bench>.json using the tolerance policy in
bench/baselines/tolerances.json, and the run is appended to a
BENCH_history.jsonl so the performance trajectory is a first-class,
diffable artifact rather than a one-off claim.

Usage:
  bench_compare.py --baselines bench/baselines CURRENT.json [MORE.json...]
                   [--tolerance-scale X] [--history BENCH_history.jsonl]
                   [--report compare_report.json]

Each CURRENT.json must carry a "bench" key naming its baseline file.

Tolerance policy (tolerances.json):
  {
    "defaults": {"rel_tol": 0.15},
    "benches": {
      "<bench>": {
        "<dotted.metric.path>": {"rel_tol": 0.15,
                                  "direction": "lower_is_better"},
        "<other.path>":          {"direction": "exact"},
        "<ratio.path>":          {"direction": "at_most", "max": 1.10}
      }
    }
  }

Only metrics listed for a bench are compared (wall clocks are machine-
dependent; the committed list picks the ratios and invariants that travel,
plus wall clocks with wide bands). Directions:
  lower_is_better  regression when current > baseline * (1 + rel_tol*scale)
  higher_is_better regression when current < baseline * (1 - rel_tol*scale)
  exact            regression on any difference (counters, parity booleans)
  at_most          regression when current > max, whatever the baseline
                   (a fixed ceiling, e.g. a scaling ratio's target)
--tolerance-scale widens every band (CI uses >1 on shared runners); it
never affects "exact" or "at_most" metrics.

Exit codes: 0 all metrics within tolerance, 1 usage/IO/schema error,
2 at least one regression.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def fail(msg):
    print(f"bench_compare: error: {msg}", file=sys.stderr)
    sys.exit(1)


def lookup(doc, dotted):
    """Resolve 'a.b.c' in nested dicts; None when absent."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or None
    except OSError:
        return None


def compare_metric(name, baseline, current, spec, scale):
    """Returns a result dict with status 'ok' | 'regression' | 'missing'."""
    direction = spec.get("direction", "lower_is_better")
    rel_tol = float(spec.get("rel_tol", 0.15))
    result = {
        "metric": name,
        "baseline": baseline,
        "current": current,
        "direction": direction,
    }
    if current is None or baseline is None:
        result["status"] = "missing"
        return result
    if direction == "exact":
        result["status"] = "ok" if current == baseline else "regression"
        return result
    if direction == "at_most":
        if "max" not in spec:
            fail(f"metric {name}: direction 'at_most' needs a 'max'")
        result["limit"] = float(spec["max"])
        result["status"] = ("ok" if current <= result["limit"]
                            else "regression")
        return result
    band = rel_tol * scale
    result["rel_tol"] = rel_tol
    result["scaled_band"] = band
    if not isinstance(baseline, (int, float)) or isinstance(baseline, bool):
        result["status"] = "missing"
        return result
    if direction == "lower_is_better":
        limit = baseline * (1.0 + band)
        ok = current <= limit
    elif direction == "higher_is_better":
        limit = baseline * (1.0 - band)
        ok = current >= limit
    else:
        fail(f"unknown direction '{direction}' for metric {name}")
    result["limit"] = limit
    if baseline != 0:
        result["change"] = (current - baseline) / baseline
    result["status"] = "ok" if ok else "regression"
    return result


def compare_bench(current_doc, baseline_doc, tolerances, scale):
    bench = current_doc.get("bench")
    specs = tolerances.get("benches", {}).get(bench)
    if not specs:
        fail(f"no tolerance entries for bench '{bench}' in tolerances.json")
    defaults = tolerances.get("defaults", {})
    results = []
    for metric, spec in sorted(specs.items()):
        merged = dict(defaults)
        merged.update(spec)
        results.append(compare_metric(
            metric, lookup(baseline_doc, metric), lookup(current_doc, metric),
            merged, scale))
    return results


def main():
    ap = argparse.ArgumentParser(
        description="Compare bench --json output against baselines.")
    ap.add_argument("current", nargs="+", help="bench --json output file(s)")
    ap.add_argument("--baselines", default="bench/baselines",
                    help="directory with <bench>.json + tolerances.json")
    ap.add_argument("--tolerance-scale", type=float, default=1.0,
                    help="widen every non-exact band by this factor "
                         "(CI shared runners use e.g. 3.0)")
    ap.add_argument("--history", default=None,
                    help="append one JSON line per compared bench")
    ap.add_argument("--report", default=None,
                    help="write the full compare report as JSON")
    args = ap.parse_args()
    if args.tolerance_scale <= 0:
        fail("--tolerance-scale must be positive")

    tol_path = os.path.join(args.baselines, "tolerances.json")
    try:
        with open(tol_path) as f:
            tolerances = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {tol_path}: {e}")

    report = {
        "tolerance_scale": args.tolerance_scale,
        "git_revision": git_revision(),
        "benches": [],
    }
    regressions = 0
    missing = 0
    for path in args.current:
        try:
            with open(path) as f:
                current_doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {path}: {e}")
        bench = current_doc.get("bench")
        if not bench:
            fail(f"{path} has no 'bench' key")
        base_path = os.path.join(args.baselines, f"{bench}.json")
        try:
            with open(base_path) as f:
                baseline_doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read baseline {base_path}: {e}")

        results = compare_bench(current_doc, baseline_doc, tolerances,
                                args.tolerance_scale)
        bench_regressions = [r for r in results if r["status"] == "regression"]
        bench_missing = [r for r in results if r["status"] == "missing"]
        regressions += len(bench_regressions)
        missing += len(bench_missing)
        report["benches"].append({
            "bench": bench,
            "current_file": path,
            "baseline_file": base_path,
            "metrics": results,
            "status": "regression" if bench_regressions else "ok",
        })

        for r in results:
            mark = {"ok": "  ok  ", "regression": " FAIL ",
                    "missing": " MISS "}[r["status"]]
            extra = ""
            if "change" in r:
                extra = f"  ({r['change']:+.1%}, limit {r['limit']:.6g})"
            elif r.get("direction") == "at_most" and "limit" in r:
                extra = f"  (at most {r['limit']:.6g})"
            print(f"[{mark}] {bench}.{r['metric']}: "
                  f"{r['baseline']} -> {r['current']}{extra}")

        if args.history:
            line = {
                "timestamp": int(time.time()),
                "git_revision": report["git_revision"],
                "bench": bench,
                "tolerance_scale": args.tolerance_scale,
                "status": "regression" if bench_regressions else "ok",
                "metrics": {r["metric"]: r["current"] for r in results
                            if r["current"] is not None},
            }
            with open(args.history, "a") as f:
                f.write(json.dumps(line, sort_keys=True) + "\n")

    report["status"] = "regression" if regressions else "ok"
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")

    if missing:
        # A metric the policy names but either side lacks is a schema drift,
        # not a perf regression — fail loudly as an error, not exit 2.
        fail(f"{missing} metric(s) missing from baseline or current output")
    if regressions:
        print(f"bench_compare: {regressions} regression(s)", file=sys.stderr)
        sys.exit(2)
    print("bench_compare: all metrics within tolerance")
    sys.exit(0)


if __name__ == "__main__":
    main()
