"""Accuracy drift between two benchmark result sets.

Usage: ``python3 bench/compare.py OLD NEW``, where OLD and NEW are result
files written by ``bench/run.py`` or directories holding them (matched by
file name).  For each pair it compares the per-iteration trajectories of
``n_free``, ``eps_f``, ``eps_p`` and ``e_h`` at equal iteration and prints
the largest relative drift, then the largest over all pairs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

QUANTITIES = ("n_free", "eps_f", "eps_p", "e_h")


def trajectory(path: Path):
    """Trajectory of the first repetition that has one."""
    reps = json.loads(path.read_text())["reps"]
    return next((r["trajectory"] for r in reps if r.get("trajectory")), None)


def rel_drift(a, b) -> float:
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def drift(old: dict, new: dict) -> dict:
    """Largest relative drift per quantity over the shared iterations."""
    out = {}
    for q in QUANTITIES:
        pairs = list(zip(old[q], new[q]))
        out[q] = max((rel_drift(a, b) for a, b in pairs), default=0.0)
    return out


def pairs(old: Path, new: Path):
    if old.is_file():
        return [(old.name, old, new)]
    return [(p.name, p, new / p.name) for p in sorted(old.glob("result-*.json"))
            if (new / p.name).is_file()]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    worst = 0.0
    matched = 0
    for name, a, b in pairs(Path(argv[1]), Path(argv[2])):
        ta, tb = trajectory(a), trajectory(b)
        if ta is None or tb is None:
            print(f"{name}: no trajectory to compare")
            continue
        matched += 1
        d = drift(ta, tb)
        n_old, n_new = len(ta["eps_f"]), len(tb["eps_f"])
        note = "" if n_old == n_new else f"  (iterations {n_old} vs {n_new})"
        print(f"{name}: " + "  ".join(f"{q} {d[q]:.3e}" for q in QUANTITIES)
              + note)
        worst = max(worst, *d.values())
    if not matched:
        print("no result pairs to compare", file=sys.stderr)
        return 1
    print(f"largest relative drift at equal iteration: {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
