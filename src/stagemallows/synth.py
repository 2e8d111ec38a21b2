"""Synthetic datasets from a known model, with right-censoring corruption.

Respondents are drawn i.i.d. from a ground-truth Mallows model. A chosen
fraction of them is then censored the way late-stage survey information
goes missing in practice: a cutoff position is drawn near three quarters
of the way through each censored respondent's ranking, and every item at
or past that position (ordering items by assigned stage) loses its stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mallows import MallowsParams, check_capacity, default_cache
from .mallows import sample  # noqa: F401  perfbench/tracer.py times synth.sample by name
from .rankings import MISSING, DistanceConfig, PartialRanking


@dataclass(frozen=True)
class SynthConfig:
    """Ground truth, dataset size, and censoring knobs."""

    truth: MallowsParams
    size: int
    missing_percent: float = 0.0
    censor_location_factor: float = 0.75
    censor_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"dataset size must be >= 1, got {self.size}")
        if not (0.0 <= self.missing_percent <= 100.0):
            raise ValueError(
                f"missing_percent must lie in [0, 100], got {self.missing_percent}"
            )
        if not 0 <= self.censor_scale < math.inf:
            raise ValueError(f"censor_scale must be finite and >= 0, got {self.censor_scale}")
        if not math.isfinite(self.censor_location_factor):
            raise ValueError(
                f"censor_location_factor must be finite, got {self.censor_location_factor}"
            )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _censor(
    stages: tuple[int, ...], rng: np.random.Generator, cfg: SynthConfig
) -> tuple[int | None, ...]:
    n = len(stages)
    draw = float(rng.normal(cfg.censor_location_factor * n, cfg.censor_scale))
    # Clamped to [1, n] before rounding, as a draw may be infinite; NaN, from
    # an infinite location and deviation of opposite signs, clamps to 1.
    cutoff = _round_half_up(min(max(1.0, draw), n))
    # Items ordered by stage (ties by item index); 1-based positions at or
    # past the cutoff are dropped. Never drop everything.
    order = np.argsort(np.asarray(stages), kind="stable")
    keep = max(cutoff - 1, 1)
    dropped = set(int(i) for i in order[keep:])
    return tuple(MISSING if i in dropped else v for i, v in enumerate(stages))


def generate(
    cfg: SynthConfig, dist_cfg: DistanceConfig = DistanceConfig()
) -> tuple[list[PartialRanking], MallowsParams]:
    """Draw a dataset from the ground truth and censor part of it.

    Exactly round(missing_percent * size / 100) respondents, chosen
    uniformly, are censored. Returns the responses along with the
    generating parameters.
    """
    truth = cfg.truth
    rng = np.random.default_rng(cfg.seed)
    # The draws of mallows.sample, one ranking per respondent built from them.
    check_capacity(truth.n, truth.l, draws=cfg.size)
    stages = default_cache().draw(truth.center.stages, truth.l, dist_cfg.p, truth.spread,
                                  rng, cfg.size)

    n_censored = _round_half_up(cfg.missing_percent * cfg.size / 100.0)
    if n_censored > 0:
        chosen = rng.choice(cfg.size, size=n_censored, replace=False)
        for idx in chosen.tolist():
            stages[idx] = _censor(stages[idx], rng, cfg)
    return [PartialRanking(row) for row in stages], truth
