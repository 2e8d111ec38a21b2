"""Ranking representations and the penalized Kendall tau distance.

Rankings assign each item a stage from 1..l. Several items may share a
stage (a bucket order) and, in a partial ranking, some items may be
unranked. The distance between two rankings counts discordant pairs at
weight 1 and pairs tied in exactly one ranking at weight p; pairs that
touch an unranked item are dropped from the comparison.

One kernel (ranking_pair_signs, compared_pairs, pair_counts) makes every
pair comparison in the package: here over an object array, so stages of
any size compare exactly, and in the fitter over the respondents' array.

A ranking's entries are checked once, when it is built: plain ints pass
with one type test each, and anything else (numpy integers, which are
converted; bool, float and text, which are refused) takes the general
path. A collection of rankings is checked against a length and a stage
domain by stage_matrix, one array check over all of their entries.
"""

from __future__ import annotations

import enum
import itertools
import numbers
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

#: Sentinel for an unranked item in a :class:`PartialRanking`.
MISSING = None

# A character outside XML 1.0's Char production: the heatmap writes every
# item label into an SVG document.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


@dataclass(frozen=True)
class ItemSet:
    """The ordered universe of items being ranked: distinct string labels,
    each made only of characters that XML 1.0 allows."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("an ItemSet needs at least one item")
        for label in self.labels:
            if not isinstance(label, str):
                raise ValueError(f"item label {label!r} is not a string")
            if _NOT_XML_CHAR.search(label):
                raise ValueError(f"item label {label!r} holds a character XML cannot carry")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("item labels must be unique")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class StageDomain:
    """The stages items can be assigned to: the integers 1..l."""

    l: int

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"stage count must be >= 1, got {self.l}")

    def stages(self) -> range:
        return range(1, self.l + 1)

    def contains(self, stage: int) -> bool:
        return 1 <= stage <= self.l


def _normalize_stage_entry(value, index: int, allow_missing: bool) -> Optional[int]:
    if value is MISSING:
        if not allow_missing:
            raise ValueError(f"entry {index} is missing in a complete ranking")
        return MISSING
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"entry {index} must be an int stage or MISSING, got {value!r}")
    value = int(value)
    if value < 1:
        raise ValueError(f"entry {index} must be a stage >= 1, got {value}")
    return value


def _normalized(stages, allow_missing: bool) -> tuple[Optional[int], ...]:
    stages = tuple(stages)
    for v in stages:
        if type(v) is not int or v < 1:
            if v is MISSING and allow_missing:
                continue
            return tuple(
                _normalize_stage_entry(v, i, allow_missing) for i, v in enumerate(stages)
            )
    return stages


@dataclass(frozen=True)
class PartialRanking:
    """One respondent's stage per item, with MISSING for unranked items."""

    stages: tuple[Optional[int], ...]

    def __post_init__(self):
        stages = _normalized(self.stages, allow_missing=True)
        object.__setattr__(self, "stages", stages)
        if stages.count(MISSING) == len(stages):
            raise ValueError("a ranking must observe at least one item")

    @property
    def n(self) -> int:
        return len(self.stages)

    @property
    def observed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.stages) if v is not MISSING)

    @property
    def r(self) -> int:
        """Number of observed items."""
        return len(self.stages) - self.stages.count(MISSING)

    @property
    def is_complete(self) -> bool:
        return self.r == self.n

    def check_domain(self, domain: StageDomain) -> None:
        for idx, value in enumerate(self.stages):
            if value is not MISSING and not domain.contains(value):
                raise ValueError(
                    f"entry {idx} has stage {value} outside 1..{domain.l}"
                )


@dataclass(frozen=True)
class CentralRanking:
    """A complete stage assignment for every item (no missing entries)."""

    stages: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", _normalized(self.stages, allow_missing=False))
        if len(self.stages) == 0:
            raise ValueError("a ranking needs at least one item")

    @property
    def n(self) -> int:
        return len(self.stages)

    def check_domain(self, domain: StageDomain) -> None:
        for idx, value in enumerate(self.stages):
            if not domain.contains(value):
                raise ValueError(
                    f"entry {idx} has stage {value} outside 1..{domain.l}"
                )


Ranking = Union[PartialRanking, CentralRanking]


def stage_matrix(
    rankings: Sequence[Ranking], n: int, domain: StageDomain
) -> tuple[np.ndarray, int]:
    """The stages of the leading rankings that have n entries, as one
    (rows, n) object array with 0 for MISSING, and how many rows that is:
    the index of the first ranking of another length, else len(rankings).

    The first of those rankings with a stage outside the domain is refused
    with its check_domain ValueError. A ranking's entries are ints >= 1 or
    MISSING, so one comparison over the array finds it.
    """
    rows = [ranking.stages for ranking in rankings]
    wrong = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) != n
    count = int(wrong.argmax()) if wrong.any() else len(rows)
    flat = np.fromiter(itertools.chain.from_iterable(rows[:count]), dtype=object,
                       count=count * n)
    stages = np.where(np.equal(flat, MISSING), 0, flat).reshape(count, n)
    outside = (stages > domain.l).any(axis=1)
    if outside.any():
        rankings[int(outside.argmax())].check_domain(domain)
    return stages, count


@dataclass(frozen=True)
class DistanceConfig:
    """Penalty weight p for pairs tied in exactly one ranking.

    p below 0.5 breaks the triangle inequality, so the full range [0, 0.5)
    is rejected rather than merely discouraged.
    """

    p: float = 0.5

    def __post_init__(self):
        if not (0.5 <= self.p <= 1.0):
            raise ValueError(f"penalty p must lie in [0.5, 1], got {self.p}")

    def weigh(self, discordant, tied_one):
        """The distance of discordant and tied-in-one pair counts: d + p * e."""
        return discordant + self.p * tied_one


class PairKind(enum.Enum):
    """How one unordered item pair compares across two rankings."""

    CONCORDANT = "concordant"
    DISCORDANT = "discordant"
    TIED_BOTH = "tied_both"
    TIED_ONE = "tied_one"
    DROPPED = "dropped"


@lru_cache(maxsize=32)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Item indices (i, j) of every unordered pair i < j, in row-major order."""
    i, j = np.triu_indices(n, k=1)
    return i.astype(np.int64), j.astype(np.int64)


def ranking_pair_signs(stages: np.ndarray) -> np.ndarray:
    """sign(stages[i] - stages[j]) as int8 for every pair i < j, along the
    last axis: how each pair is ordered."""
    i, j = pair_indices(stages.shape[-1])
    a, b = stages.take(i, axis=-1), stages.take(j, axis=-1)
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def compared_pairs(observed: np.ndarray) -> np.ndarray:
    """Whether each pair i < j is compared, along the last axis, given which
    items are observed. A pair that touches an unranked item is dropped."""
    i, j = pair_indices(observed.shape[-1])
    return observed[..., i] & observed[..., j]


def pair_counts(
    x_signs: np.ndarray, y_signs: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Discordant and tied-in-one pair counts along the last axis.

    Pairs where ``valid`` is False (see compared_pairs) are dropped and
    count as neither.
    """
    discordant = (x_signs * y_signs) == -1
    tied_one = (x_signs == 0) ^ (y_signs == 0)
    if valid is not None:
        discordant &= valid
        tied_one &= valid
    return discordant.sum(axis=-1, dtype=np.int64), tied_one.sum(axis=-1, dtype=np.int64)


def _tally(x: Sequence[Optional[int]], y: Sequence[Optional[int]]) -> dict[PairKind, int]:
    if len(y) != len(x):
        raise ValueError(f"rankings have {len(x)} and {len(y)} items")
    # Object dtype compares the stages as Python ints, exactly at any size.
    stages = np.array([[0 if v is MISSING else v for v in r] for r in (x, y)], dtype=object)
    compared = compared_pairs((stages > 0).all(axis=0))
    x_signs, y_signs = ranking_pair_signs(stages)
    discordant, tied_one = pair_counts(x_signs, y_signs, compared)
    tied_both = int(np.count_nonzero(compared & (x_signs == 0) & (y_signs == 0)))
    kept = int(np.count_nonzero(compared))
    return {
        PairKind.CONCORDANT: kept - int(discordant) - int(tied_one) - tied_both,
        PairKind.DISCORDANT: int(discordant),
        PairKind.TIED_BOTH: tied_both,
        PairKind.TIED_ONE: int(tied_one),
        PairKind.DROPPED: len(compared) - kept,
    }


def pair_tally(x: Ranking, y: Ranking) -> dict[PairKind, int]:
    """Count every unordered item pair by its classification."""
    return _tally(x.stages, y.stages)


def classify_pair(x: Ranking, y: Ranking, i: int, j: int) -> PairKind:
    """Classify the item pair (i, j) across rankings x and y.

    The pair is DROPPED as soon as either ranking misses either item,
    so censored entries never contribute to a distance.
    """
    if i == j:
        raise ValueError("pair indices must be distinct")
    n = len(x.stages)
    if len(y.stages) != n:
        raise ValueError(f"rankings have {n} and {len(y.stages)} items")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) out of range for {n} items")
    tally = _tally((x.stages[i], x.stages[j]), (y.stages[i], y.stages[j]))
    return next(kind for kind, count in tally.items() if count)


def kendall_tau_partial(
    x: Ranking, y: Ranking, cfg: DistanceConfig = DistanceConfig()
) -> float:
    """Penalized Kendall tau distance: |discordant| + p * |tied in one|.

    Concordant pairs, pairs tied in both rankings, and dropped pairs
    contribute nothing. Symmetric in x and y.
    """
    tally = pair_tally(x, y)
    return cfg.weigh(tally[PairKind.DISCORDANT], tally[PairKind.TIED_ONE])


def ranking_from_values(values: Sequence[Optional[int]]) -> Ranking:
    """Build a CentralRanking when complete, else a PartialRanking."""
    if any(v is MISSING for v in values):
        return PartialRanking(tuple(values))
    return CentralRanking(tuple(int(v) for v in values))
