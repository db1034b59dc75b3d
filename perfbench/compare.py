"""Compare two sets of result documents written by ``perfbench/run.py``.

    python3 perfbench/compare.py --base .perfbench/results/A*.json \\
                                 --head .perfbench/results/B*.json

Both sets must come from one workload and trace mode, and every document's
environment fingerprint must be identical; otherwise the comparison is
refused (exit code 2), because a different machine or library version
measures the runner, not the code.  For each metric it prints both sides'
median and quartiles and a verdict:

* ``regression``: the head median is worse than the base median by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the base's own quartile spread is wider than the bound and
  the head does not read better on every run;
* ``gain``: the head wins at least nine tenths of the pairs (base run *i*
  against head run *i*, so interleave the runs) and the medians differ by
  more than the base's quartile spread;
* ``same`` otherwise.  Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from fingerprint import differences

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, head, better, bound):
    """The verdict for one end-to-end metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / abs(base_median) if base_median else 0.0
    worse = sign * (head_median - base_median) / abs(base_median) if base_median else 0.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    if worse > bound:
        return "regression"
    every_run_better = all(sign * (b - h) > 0 for b in base for h in head)
    if spread > bound and not every_run_better:
        return "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and -worse * abs(base_median) > q3 - q1:
        return "gain"
    return "same"


def load(paths):
    documents = [json.loads(Path(path).read_text(encoding="utf-8")) for path in paths]
    if not documents:
        raise SystemExit("no result documents given")
    return documents


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)

    reference = base[0]
    for document in base + head:
        for field in ("workload", "trace"):
            if document[field] != reference[field]:
                print(f"refused: {field} differs ({reference[field]!r} vs "
                      f"{document[field]!r})", file=sys.stderr)
                return 2
        changed = differences(reference["fingerprint"], document["fingerprint"])
        if changed:
            print("refused: environment fingerprints differ: "
                  + json.dumps(changed, sort_keys=True), file=sys.stderr)
            return 2

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    print(f"{reference['workload']} (trace={reference['trace']}): "
          f"{len(base)} base runs, {len(head)} head runs")
    status = 0
    for name, entry in reference["metrics"].items():
        base_values = [document["metrics"][name]["value"] for document in base]
        head_values = [document["metrics"][name]["value"] for document in head]
        b1, b3 = quartiles(base_values)
        h1, h3 = quartiles(head_values)
        line = (f"{name:<34} base {statistics.median(base_values):.6g} [{b1:.6g}, {b3:.6g}]"
                f"  head {statistics.median(head_values):.6g} [{h1:.6g}, {h3:.6g}]"
                f"  {entry['unit']}")
        if name in bounds:
            result = verdict(base_values, head_values, bounds[name]["better"],
                             bounds[name]["bound"])
            status = max(status, 1 if result == "regression" else 0)
            line += f"  {result}"
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
