"""Ranking representations and the penalized Kendall tau distance.

Rankings assign each item a stage from 1..l. Several items may share a
stage (a bucket order) and, in a partial ranking, some items may be
unranked. The distance between two rankings counts discordant pairs at
weight 1 and pairs tied in exactly one ranking at weight p; pairs that
touch an unranked item are dropped from the comparison.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

#: Sentinel for an unranked item in a :class:`PartialRanking`.
MISSING = None


@dataclass(frozen=True)
class ItemSet:
    """The ordered universe of items being ranked."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("an ItemSet needs at least one item")
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


@dataclass(frozen=True)
class PartialRanking:
    """One respondent's stage per item, with MISSING for unranked items."""

    stages: tuple[Optional[int], ...]

    def __post_init__(self):
        normalized = tuple(
            _normalize_stage_entry(v, i, allow_missing=True)
            for i, v in enumerate(self.stages)
        )
        object.__setattr__(self, "stages", normalized)
        if all(v is MISSING for v in self.stages):
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
        return len(self.observed_indices)

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
        normalized = tuple(
            _normalize_stage_entry(v, i, allow_missing=False)
            for i, v in enumerate(self.stages)
        )
        object.__setattr__(self, "stages", normalized)
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

    def as_partial(self) -> PartialRanking:
        return PartialRanking(self.stages)


Ranking = Union[PartialRanking, CentralRanking]


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


class PairKind(enum.Enum):
    """How one unordered item pair compares across two rankings."""

    CONCORDANT = "concordant"
    DISCORDANT = "discordant"
    TIED_BOTH = "tied_both"
    TIED_ONE = "tied_one"
    DROPPED = "dropped"


def _sign(a: int, b: int) -> int:
    return (a > b) - (a < b)


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

    xi, xj, yi, yj = x.stages[i], x.stages[j], y.stages[i], y.stages[j]
    if xi is MISSING or xj is MISSING or yi is MISSING or yj is MISSING:
        return PairKind.DROPPED
    sx = _sign(xi, xj)
    sy = _sign(yi, yj)
    if sx == 0 and sy == 0:
        return PairKind.TIED_BOTH
    if sx == 0 or sy == 0:
        return PairKind.TIED_ONE
    if sx != sy:
        return PairKind.DISCORDANT
    return PairKind.CONCORDANT


def pair_tally(x: Ranking, y: Ranking) -> dict[PairKind, int]:
    """Count every unordered item pair by its classification."""
    n = len(x.stages)
    if len(y.stages) != n:
        raise ValueError(f"rankings have {n} and {len(y.stages)} items")
    tally = {kind: 0 for kind in PairKind}
    for i in range(n):
        for j in range(i + 1, n):
            tally[classify_pair(x, y, i, j)] += 1
    return tally


@lru_cache(maxsize=32)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Item indices (i, j) of every unordered pair i < j, in row-major order."""
    i, j = np.triu_indices(n, k=1)
    return i.astype(np.int64), j.astype(np.int64)


def pair_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sign(a - b) as int8: how each compared pair is ordered."""
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def ranking_pair_signs(stages: np.ndarray) -> np.ndarray:
    """pair_signs of items i and j for every pair i < j, along the last axis."""
    i, j = pair_indices(stages.shape[-1])
    return pair_signs(stages[..., i], stages[..., j])


def pair_counts(
    x_signs: np.ndarray, y_signs: np.ndarray, valid: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Discordant and tied-in-one pair counts along the last axis.

    Pairs where ``valid`` is False (those touching an unranked item) are
    dropped and count as neither.
    """
    discordant = (x_signs * y_signs) == -1
    tied_one = (x_signs == 0) ^ (y_signs == 0)
    if valid is not None:
        discordant &= valid
        tied_one &= valid
    return discordant.sum(axis=-1, dtype=np.int64), tied_one.sum(axis=-1, dtype=np.int64)


def kendall_tau_partial(
    x: Ranking, y: Ranking, cfg: DistanceConfig = DistanceConfig()
) -> float:
    """Penalized Kendall tau distance: |discordant| + p * |tied in one|.

    Concordant pairs, pairs tied in both rankings, and dropped pairs
    contribute nothing. Symmetric in x and y.
    """
    n = len(x.stages)
    if len(y.stages) != n:
        raise ValueError(f"rankings have {n} and {len(y.stages)} items")
    # Object dtype compares the stages as Python ints, exactly at any size.
    stages = np.array(
        [[0 if v is MISSING else v for v in r.stages] for r in (x, y)], dtype=object
    )
    observed = (stages > 0).all(axis=0)
    i, j = pair_indices(n)
    signs = ranking_pair_signs(stages)
    discordant, tied_one = pair_counts(signs[0], signs[1], observed[i] & observed[j])
    return int(discordant) + cfg.p * int(tied_one)


def ranking_from_values(values: Sequence[Optional[int]]) -> Ranking:
    """Build a CentralRanking when complete, else a PartialRanking."""
    if any(v is MISSING for v in values):
        return PartialRanking(tuple(values))
    return CentralRanking(tuple(int(v) for v in values))
