"""Compare spine records: ``python3 compare.py A.json B.json``.

``A`` is the base, ``B`` the candidate; both are ``run.py --out`` records of
the same seed and run length (the work is a function of both, so records
that differ in either, or in schema, are refused).  Either side may be
several records of one commit, ``compare.py A1.json A2.json -- B1.json
B2.json``, measured turn and turn about so that a drift of the box falls on
both sides; a side is then read by its median, and the two sides must have
measured the same seeds (one seed many times, or the same ten seeds each).  For every workload and
end-to-end metric it prints the ratio ``B / A`` with its base, the bound
``BENCHMARK.json`` fixes for that metric, and a verdict:

* ``worse`` / ``better`` — ``B`` moved against / with the metric's direction
  by more than the bound;
* ``same`` — within the bound;
* ``unresolved`` — the noise on either side is wider than the bound, so no
  verdict is given.  A side of one record is noisy in a metric the run
  flagged ``noisy`` on that workload (its repeats within the run disagreed,
  or the driver ran late where it was read); a side of several records when
  their spread (interquartile range over the median) exceeds the bound.
  When every record of one side beats every record of the other, three or
  more a side, the verdict stands whatever the spread.

``failed_share`` is the worst of a side, compared with bound 0: any new
failure is ``worse``.  Exit code: 1 when any row is ``worse``; else 3 when
any row is ``unresolved`` (no verdict is not a pass); else 0; 2 when the
records cannot be compared.  This is the tool for the two-sets acceptance
check of the benchmark itself and for later A/B changes.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple

from estimators import spread
from run import load_contract


def verdict(base: float, value: float, better: str, bound: float, noisy: bool) -> str:
    """The verdict for one metric moving from ``base`` to ``value``."""
    if noisy:
        return "unresolved"
    if base == value:
        return "same"
    if base == 0:
        change = float("inf")
    else:
        change = (value - base) / abs(base)
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


#: Envelope fields that fix the work of a run.
SAME_WORK = ("schema", "seed", "seconds")


def mismatch(bases: Sequence[Dict[str, Any]], candidates: Sequence[Dict[str, Any]]) -> List[str]:
    """Work (as ``schema/seed/seconds``) that only one of the two sides measured."""
    first, second = (
        {"/".join(str(record.get("envelope", {}).get(name)) for name in SAME_WORK) for record in side}
        for side in (bases, candidates)
    )
    return sorted(first ^ second)


def separated(base: Sequence[float], candidate: Sequence[float]) -> bool:
    """Every value of one side lies beyond every value of the other, three
    or more a side (fewer are apart by chance one time in three)."""
    return min(len(base), len(candidate)) >= 3 and (
        max(base) < min(candidate) or max(candidate) < min(base)
    )


def noise(runs: Sequence[Dict[str, Any]], name: str) -> float:
    """A side's noise in one metric, to hold against the metric's bound."""
    if len(runs) > 1:
        return spread([run["end_to_end"][name] for run in runs])
    return float("inf") if name in runs[0]["noisy"] else 0.0


def compare(
    bases: Sequence[Dict[str, Any]], candidates: Sequence[Dict[str, Any]], contract: Dict[str, Any]
) -> List[Tuple]:
    """Rows ``(workload, metric, base, value, ratio, bound, verdict)``."""
    specs = [(s["name"], s["better"], s["bound"]) for s in contract["end_to_end"]]
    rows = []
    for workload in (spec["name"] for spec in contract["workloads"]):
        sides = [
            [record["workloads"][workload]["untraced"] for record in records
             if "untraced" in record["workloads"].get(workload, {})]
            for records in (bases, candidates)
        ]
        if not all(sides):
            continue
        for name, better, bound in specs:
            old, new = ([run["end_to_end"][name] for run in runs] for runs in sides)
            noisy = max(noise(runs, name) for runs in sides) > bound and not separated(old, new)
            base, value = statistics.median(old), statistics.median(new)
            rows.append((workload, name, base, value, value / base if base else float("nan"),
                         bound, verdict(base, value, better, bound, noisy)))
        # A failure is a fact, not a timing: the worst of a side, no noise excuses it.
        base, value = (max(run["detail"]["failed_share"] for run in runs) for runs in sides)
        rows.append((workload, "failed_share", base, value, value / base if base else float("nan"),
                     0.0, verdict(base, value, "lower", 0.0, False)))
    return rows


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # ``A B``, or ``A1 A2 ... -- B1 B2 ...``.
    split = argv.index("--") if "--" in argv else 1 if len(argv) == 2 else 0
    sides = argv[:split], [path for path in argv[split:] if path != "--"]
    if not all(sides):
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    bases, candidates = load(sides[0]), load(sides[1])
    differing = mismatch(bases, candidates)
    if differing:
        print("compare: the two sides measured different work — only one has "
              + ", ".join(differing), file=sys.stderr)
        return 2
    rows = compare(bases, candidates, load_contract())
    print(f"{'workload':<22} {'metric':<14} {'base':>12} {'candidate':>12} {'ratio':>7} {'bound':>6}  verdict")
    for workload, name, old, new, ratio, bound, outcome in rows:
        print(f"{workload:<22} {name:<14} {old:>12.4f} {new:>12.4f} {ratio:>7.3f} {bound:>6.2f}  {outcome}")
    verdicts = [row[-1] for row in rows]
    if "worse" in verdicts:
        return 1
    if "unresolved" in verdicts:
        print(f"compare: {verdicts.count('unresolved')} of {len(rows)} rows unresolved — "
              "no verdict, measure again", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
