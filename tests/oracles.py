"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written with plain Python loops, or with
plain numpy over the enumerated space, and no imports from stagemallows,
so library bugs cannot leak into the expected values.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np


def naive_distance(x, y, p=0.5):
    """Pairwise scan distance: |discordant| + p * |tied in exactly one|.

    Entries of None are unranked; any pair touching one is skipped.
    """
    assert len(x) == len(y)
    total = 0.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if x[i] is None or x[j] is None or y[i] is None or y[j] is None:
                continue
            sx = (x[i] > x[j]) - (x[i] < x[j])
            sy = (y[i] > y[j]) - (y[i] < y[j])
            if sx == 0 and sy == 0:
                continue
            if sx == 0 or sy == 0:
                total += p
            elif sx != sy:
                total += 1.0
    return total


def naive_pair_tally(x, y):
    """Count every unordered pair as "concordant", "discordant", "tied_both",
    "tied_one" or "dropped" (touching a None in either ranking)."""
    assert len(x) == len(y)
    tally = dict.fromkeys(("concordant", "discordant", "tied_both", "tied_one", "dropped"), 0)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if x[i] is None or x[j] is None or y[i] is None or y[j] is None:
                kind = "dropped"
            elif x[i] == x[j] and y[i] == y[j]:
                kind = "tied_both"
            elif x[i] == x[j] or y[i] == y[j]:
                kind = "tied_one"
            elif (x[i] < x[j]) != (y[i] < y[j]):
                kind = "discordant"
            else:
                kind = "concordant"
            tally[kind] += 1
    return tally


def inversion_count(x, y):
    """Classical Kendall tau on strict rankings: number of inverted pairs."""
    assert len(x) == len(y)
    count = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            if (x[i] - x[j]) * (y[i] - y[j]) < 0:
                count += 1
    return count


def full_space(n, l):
    """All stage assignments in {1..l}^n, lexicographic."""
    return list(itertools.product(range(1, l + 1), repeat=n))


def space_pair_counts(center, l):
    """Discordant and tied-in-exactly-one pair counts against center, for
    every point of {1..l}^n in lexicographic order, as two int64 arrays."""
    n = len(center)
    space = np.array(full_space(n, l), dtype=np.int64).reshape(l**n, n)
    i, j = np.triu_indices(n, k=1)
    c = np.asarray(center, dtype=np.int64)
    sx = np.sign(space[:, i] - space[:, j])
    sy = np.sign(c[i] - c[j])
    discordant = (sx * sy < 0).sum(axis=1, dtype=np.int64)
    tied_one = ((sx == 0) != (sy == 0)).sum(axis=1, dtype=np.int64)
    return discordant, tied_one


def naive_psi(center, l, spread, p=0.5):
    """Partition function by direct summation over the full space."""
    return sum(
        math.exp(-naive_distance(x, center, p) / spread)
        for x in full_space(len(center), l)
    )


def naive_pmf(center, l, spread, p=0.5):
    """Exact pmf over the full space, as a dict keyed by assignment tuple."""
    psi = naive_psi(center, l, spread, p)
    return {
        x: math.exp(-naive_distance(x, center, p) / spread) / psi
        for x in full_space(len(center), l)
    }


def log_trunc_normal(value, scale=1.0):
    """Log density of a normal(0, scale) truncated to (0, inf)."""
    if value <= 0:
        return -math.inf
    z = value / scale
    return math.log(2.0) - 0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - math.log(scale)


def naive_log_likelihood_restricted(data, center, l, spread, p=0.5):
    """Censored-data log-likelihood, each term normalized on its own subspace."""
    total = 0.0
    for stages in data:
        observed = [i for i, v in enumerate(stages) if v is not None]
        sub_x = [stages[i] for i in observed]
        sub_c = [center[i] for i in observed]
        d = naive_distance(sub_x, sub_c, p)
        total += -d / spread - math.log(naive_psi(tuple(sub_c), l, spread, p))
    return total


def naive_log_posterior(data, center, l, spread, prior_center, p=0.5, pi_spread=None):
    """Unnormalized log posterior matching the model's factorization."""
    ll = naive_log_likelihood_restricted(data, center, l, spread, p)
    lam_term = log_trunc_normal(spread)
    s = spread if pi_spread is None else pi_spread
    pi_term = -naive_distance(center, prior_center, p) / s - math.log(
        naive_psi(tuple(prior_center), l, s, p)
    )
    return ll + lam_term + pi_term


def naive_read_dataset(csv_path):
    """(respondent ids, stage tuples) of a well-formed dataset CSV and its
    sidecar, read row by row: respondents in order of first appearance,
    None for an item that is unranked (an empty or blank stage cell, or no
    row), and stage labels shifted by the sidecar's offset into 1..l."""
    csv_path = Path(csv_path)
    meta = json.loads(csv_path.with_suffix(".meta.json").read_text(encoding="utf-8"))
    column = {str(label): k for k, label in enumerate(meta["items"])}
    offset = meta["stage_label_offset"]
    stages = {}
    with csv_path.open(newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        for rid, item, text in rows:
            entry = stages.setdefault(rid, [None] * len(column))
            if text.strip():
                entry[column[item]] = int(text) - offset + 1
    return list(stages), [tuple(entry) for entry in stages.values()]
