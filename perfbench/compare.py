"""Side-by-side comparison of two result sets written by ``run.py --out``.

For every (metric, workload) pair present in both files it prints the
median and quartiles of each side and the change of the medians.  An
end-to-end metric gets a verdict against its bound from BENCHMARK.json:

- ``better (every run)``: every new run is better than every base run;
- ``unresolved``: otherwise, when either side's quartile spread, as a
  share of its median, is wider than the bound;
- ``REGRESSION``: otherwise, when the new median is worse by more than
  the bound;
- ``ok``: otherwise.

Per-layer metrics have no bound and are printed without a verdict.
"""

import json
import os
import statistics
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(path):
    """(workload, metric) -> list of values, plus the units seen."""
    values, units = defaultdict(list), {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, entry in record["metrics"].items():
                values[(record["workload"], metric)].append(entry["value"])
                units[metric] = entry["unit"]
    return values, units


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better, bound):
    _, b_med, _ = quartiles(base)
    _, n_med, _ = quartiles(new)
    worse = (n_med - b_med) / b_med * (1 if better == "lower" else -1)
    if (max(new) < min(base)) if better == "lower" else (min(new) > max(base)):
        return "better (every run)"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "REGRESSION" if worse > bound else "ok"


def main(base_path, new_path):
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, units = load(base_path)
    new, _ = load(new_path)
    print(f"{'workload':<10} {'metric':<30} {'base median [q1, q3]':>34}  "
          f"{'new median [q1, q3]':>34}  {'change':>8}  verdict")
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        b, n = base[key], new[key]
        bq1, bmed, bq3 = quartiles(b)
        nq1, nmed, nq3 = quartiles(n)
        change = f"{(nmed - bmed) / bmed:+.1%}" if bmed else "n/a"
        if metric in bounds:
            rule = bounds[metric]
            result = verdict(b, n, rule["better"], rule["bound"])
            result += f" (bound {rule['bound']:.0%})"
            regressions += result.startswith("REGRESSION")
        else:
            result = ""
        unit = units.get(metric, "")
        print(f"{workload:<10} {metric:<30} "
              f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}] {unit}':>34}  "
              f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}] {unit}':>34}  "
              f"{change:>8}  {result}  (n={len(b)}/{len(n)})")
    return 1 if regressions else 0
