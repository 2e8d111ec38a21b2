"""Time the partition-row builds of a fit, one structural class at a time.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/time_rows.py [--repeats R]

For every structural class of n <= 10 items over l = 4 stages and of n <= 6
items over l = 3, at p = 0.5 and p = 0.731, and of exactly 16 items over
l = 4 at p = 0.5, builds the class's row over distance_grid(n, p), in turn
and with one PartitionCache, as a fit meets them: the cached stage-count
steps, their key terms, state lists, compositions and key lookups are
cleared once at the start of a pass, so a class reuses the steps that
earlier classes built. Each build is timed in two parts with
time.perf_counter: ``steps_s`` builds the class's program
(mallows._stage_steps, which builds only the steps not met before), and
``row_s`` is PartitionCache.row on top of it. A space's figure is the sum
over its classes; each is the median of R passes, after one untimed pass.
``class_steps`` counts the classes' buckets, one step each, and
``distinct_steps`` the steps a pass built. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import statistics
import time
from importlib import metadata

from stagemallows import mallows

#: (fewest items, most items, stages, p) of each space timed.
SPACES = ((1, 10, 4, 0.5), (1, 10, 4, 0.731), (1, 6, 3, 0.5), (1, 6, 3, 0.731),
          (16, 16, 4, 0.5))


def classes(n_min: int, n_max: int, l: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, class key) for every structural class of n_min <= n <= n_max
    items in at most l buckets."""
    found = set()
    for n in range(n_min, n_max + 1):
        for buckets in range(1, min(l, n) + 1):
            for cuts in itertools.combinations(range(1, n), buckets - 1):
                edges = (0, *cuts, n)
                sizes = [b - a for a, b in zip(edges, edges[1:])]
                found.add((n, mallows.class_of_sizes(sizes)))
    return sorted(found)


def one_pass(space: list[tuple[int, tuple[int, ...]]], l: int, p: float) -> tuple[float, float]:
    """Seconds spent building the programs and the rows of every class."""
    for cached in (mallows._stage_step, mallows._step_keys, mallows._step_weights,
                   mallows._placed_states, mallows._compositions, mallows._key_lookup):
        cached.cache_clear()
    cache = mallows.PartitionCache()
    steps_s = row_s = 0.0
    clock = time.perf_counter
    for n, class_key in space:
        start = clock()
        mallows._stage_steps(class_key, min(l, n))
        built = clock()
        cache.row(n, l, class_key, p)
        steps_s += built - start
        row_s += clock() - built
    return steps_s, row_s


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    results = []
    for n_min, n_max, l, p in SPACES:
        space = classes(n_min, n_max, l)
        one_pass(space, l, p)
        passes = [one_pass(space, l, p) for _ in range(args.repeats)]
        results.append({
            "n_min": n_min, "n_max": n_max, "l": l, "p": p, "classes": len(space),
            "class_steps": sum(len(class_key) for _, class_key in space),
            "distinct_steps": mallows._stage_step.cache_info().currsize,
            "steps_s": round(statistics.median(a for a, _ in passes), 4),
            "row_s": round(statistics.median(b for _, b in passes), 4),
        })
    print(json.dumps({
        "python": platform.python_version(), "numpy": metadata.version("numpy"),
        "repeats": args.repeats, "spaces": results,
    }, indent=1))


if __name__ == "__main__":
    main()
