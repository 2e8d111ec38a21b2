"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success; they also appear in captured output on failure).
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from stagemallows.cli import cli
from stagemallows.inference import McmcConfig, PriorConfig, mcmc_fit
from stagemallows.io import demo_dataset_path, item_response_rates, read_dataset
from stagemallows.mallows import (
    MallowsParams,
    log_pmf,
    partition_function,
    sample,
)
from stagemallows.rankings import (
    CentralRanking,
    DistanceConfig,
    StageDomain,
    kendall_tau_partial,
)
from stagemallows.synth import SynthConfig, generate

from oracles import (
    full_space,
    log_trunc_normal,
    naive_distance,
    naive_log_likelihood_restricted,
    naive_psi,
)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def _random_cases(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        l = int(rng.integers(1, 5))
        spread = float(rng.choice([0.3, 1.0, 3.0]))
        center = tuple(int(v) for v in rng.integers(1, l + 1, n))
        yield n, l, spread, center


@pytest.mark.usefixtures("fresh_partition_cache")
def test_criterion_1_psi_oracle_equivalence():
    """partition_function matches naive enumeration to 1e-10 relative."""
    started = time.time()
    worst = 0.0
    for n, l, spread, center in _random_cases(50, seed=101):
        params = MallowsParams(CentralRanking(center), spread, StageDomain(l))
        got = partition_function(params)
        want = naive_psi(center, l, spread)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"psi vs naive enumeration, 50 cases: worst rel err "
                   f"{worst:.3e} (tol 1e-10), {elapsed:.1f}s (limit 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


@pytest.mark.usefixtures("fresh_partition_cache")
def test_criterion_2_pmf_normalization_and_mode():
    """exp(log_pmf) sums to 1 +- 1e-10 and the center attains the maximum."""
    started = time.time()
    worst_norm = 0.0
    mode_ok = True
    for n, l, spread, center in _random_cases(50, seed=202):
        params = MallowsParams(CentralRanking(center), spread, StageDomain(l))
        values = {
            x.stages: log_pmf(x, params) for x in map(CentralRanking, full_space(n, l))
        }
        total = sum(math.exp(v) for v in values.values())
        worst_norm = max(worst_norm, abs(total - 1.0))
        # Degenerate centers can share the mode; the center must attain it.
        if values[center] < max(values.values()) - 1e-12:
            mode_ok = False
    elapsed = time.time() - started
    ok = worst_norm <= 1e-10 and mode_ok and elapsed < 10.0
    _report(2, ok, f"pmf normalization worst |sum-1| {worst_norm:.3e} (tol 1e-10), "
                   f"center attains mode: {mode_ok}, {elapsed:.1f}s (limit 10s)")
    assert worst_norm <= 1e-10
    assert mode_ok
    assert elapsed < 10.0


def test_criterion_3_metric_properties():
    """symmetry, identity, triangle inequality on 10,000 random triples."""
    started = time.time()
    rng = np.random.default_rng(303)
    cfg = DistanceConfig(p=0.5)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        l = int(rng.integers(1, 5))
        x, y, z = (
            CentralRanking(tuple(int(v) for v in rng.integers(1, l + 1, n)))
            for _ in range(3)
        )
        dxy = kendall_tau_partial(x, y, cfg)
        if kendall_tau_partial(x, x, cfg) != 0.0:
            violations += 1
        if dxy != kendall_tau_partial(y, x, cfg):
            violations += 1
        if kendall_tau_partial(x, z, cfg) > dxy + kendall_tau_partial(y, z, cfg) + 1e-12:
            violations += 1
    elapsed = time.time() - started
    ok = violations == 0 and elapsed < 30.0
    _report(3, ok, f"metric properties on 10,000 triples: {violations} violations "
                   f"(tol 0), {elapsed:.1f}s (limit 30s)")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_4_sampler_fidelity():
    """chi-square of 1e5 exact samples against the enumerated pmf."""
    center = (1, 2, 3)
    l, spread, draws = 3, 1.0, 100_000
    params = MallowsParams(CentralRanking(center), spread, StageDomain(l))
    samples = sample(params, rng=np.random.default_rng(404), count=draws)
    counts = {}
    for r in samples:
        counts[r.stages] = counts.get(r.stages, 0) + 1
    space = full_space(3, l)
    psi = naive_psi(center, l, spread)
    expected = np.array(
        [draws * math.exp(-naive_distance(x, center) / spread) / psi for x in space]
    )
    observed = np.array([counts.get(x, 0) for x in space], dtype=float)
    result = stats.chisquare(observed, expected * (observed.sum() / expected.sum()))
    ok = result.pvalue > 0.001
    _report(4, ok, f"sampler chi-square p-value {result.pvalue:.4f} "
                   f"(significance 0.001, n=3, l=3, lambda=1, 1e5 draws)")
    assert result.pvalue > 0.001


def test_criterion_5_exact_posterior_agreement():
    """2e5-iteration chain vs brute-force posterior, total variation <= 0.02.

    The oracle enumerates all 8 centers and marginalizes the spread by
    trapezoid quadrature on (0, 5] with 500 points, using only the naive
    reference implementations.
    """
    n, l, m = 3, 2, 5
    truth_center = (1, 1, 2)
    domain = StageDomain(l)
    truth = MallowsParams(CentralRanking(truth_center), 1.0, domain)
    data, _ = generate(SynthConfig(truth=truth, size=m, seed=42))
    raw = [tuple(r.stages) for r in data]

    grid = np.array([j * 0.01 for j in range(1, 501)])
    centers = full_space(n, l)
    logf = np.empty((len(centers), len(grid)))
    for ci, c in enumerate(centers):
        for gi, lam in enumerate(grid):
            ll = naive_log_likelihood_restricted(raw, c, l, lam)
            pi_term = -naive_distance(c, truth_center) / lam - math.log(
                naive_psi(truth_center, l, lam)
            )
            logf[ci, gi] = ll + log_trunc_normal(lam) + pi_term
    top = logf.max()
    weights = np.trapezoid(np.exp(logf - top), grid, axis=1)
    exact = weights / weights.sum()

    mcmc = McmcConfig(iterations=205_000, burn_in=5_000, seed=77, lambda_init=1.0)
    result = mcmc_fit(data, domain, PriorConfig(center=truth.center), mcmc)
    index = {c: i for i, c in enumerate(centers)}
    counts = np.zeros(len(centers))
    for row in result.trace.centers:
        counts[index[tuple(int(v) for v in row)]] += 1
    empirical = counts / counts.sum()

    tv = 0.5 * float(np.abs(exact - empirical).sum())
    ok = tv <= 0.02
    _report(5, ok, f"chain vs quadrature posterior: total variation {tv:.4f} "
                   f"(tol 0.02, 2e5 retained samples, 8 centers x 500-pt grid)")
    assert tv <= 0.02


@pytest.mark.usefixtures("fresh_partition_cache")
def test_criterion_6_recovery_at_survey_scale():
    """Recovery over 12 repeats at M=100, n=8, l=4, center [1,2,2,3,3,3,3,4].

    Chains are randomly initialized per repeat (uniform start center,
    starting spread drawn from [0.5, 2]); the prior stays centered on the
    truth. MCMC is stochastic, so the tolerances are deliberately loose:
    spread 0.5 / 0% missing must reach mean |lambda error| <= 0.15 and
    mean d_p <= 1.0; spread 2.0 / 10% missing must reach mean d_p <= 2.0.
    """
    center = CentralRanking((1, 2, 2, 3, 3, 3, 3, 4))
    domain = StageDomain(4)
    cfg = DistanceConfig()

    def run_row(lam0, missing_pct, seed):
        rng = np.random.default_rng(seed)
        maes, dps, worst_repeat = [], [], 0.0
        rates = []
        for _ in range(12):
            synth_seed = int(rng.integers(2**63))
            chain_seed = int(rng.integers(2**63))
            lam_init = float(rng.uniform(0.5, 2.0))
            start = CentralRanking(tuple(int(v) for v in rng.integers(1, 5, 8)))
            data, _ = generate(
                SynthConfig(
                    truth=MallowsParams(center, lam0, domain),
                    size=100,
                    missing_percent=missing_pct,
                    seed=synth_seed,
                ),
                cfg,
            )
            mcmc = McmcConfig(
                iterations=1500,
                burn_in=500,
                seed=chain_seed,
                lambda_init=lam_init,
                start_center=start,
            )
            started = time.time()
            result = mcmc_fit(data, domain, PriorConfig(center=center), mcmc, cfg)
            worst_repeat = max(worst_repeat, time.time() - started)
            assert len(result.trace) == 1000
            maes.append(abs(result.lambda_map - lam0))
            dps.append(kendall_tau_partial(result.pi_map, center, cfg))
            rates.extend(result.trace.acceptance_rates)
        return float(np.mean(maes)), float(np.mean(dps)), worst_repeat, rates

    mae_a, dp_a, t_a, rates_a = run_row(0.5, 0.0, seed=606)
    mae_b, dp_b, t_b, rates_b = run_row(2.0, 10.0, seed=607)
    # Hard health check everywhere: a rate of exactly 0 or 1 means the
    # chain never moved or never rejected. The tighter (0.01, 0.99) band
    # only applies where the coupled proposal matches the posterior scale;
    # at spread 2.0 the proposal is legitimately much broader than the
    # M=100 posterior and center acceptance sits near 1%.
    healthy = all(0.0 < r < 1.0 for r in rates_a + rates_b) and all(
        0.01 < r < 0.99 for r in rates_a
    )

    ok = mae_a <= 0.15 and dp_a <= 1.0 and dp_b <= 2.0 and max(t_a, t_b) < 120 and healthy
    _report(6, ok,
            f"recovery: spread 0.5/0% -> mean MAE {mae_a:.3f} (tol 0.15), "
            f"mean d_p {dp_a:.3f} (tol 1.0); spread 2.0/10% -> mean d_p {dp_b:.3f} "
            f"(tol 2.0, MAE {mae_b:.3f}); slowest repeat {max(t_a, t_b):.1f}s "
            f"(limit 120s); acceptance rates healthy: {healthy}")
    assert mae_a <= 0.15
    assert dp_a <= 1.0
    assert dp_b <= 2.0
    assert max(t_a, t_b) < 120.0
    assert healthy


def test_criterion_7_uniform_and_concentrated_limits():
    """Huge spread flattens the pmf; tiny spread concentrates it."""
    flat = MallowsParams(CentralRanking((1, 2)), 1e6, StageDomain(2))
    probs = [math.exp(log_pmf(x, flat)) for x in map(CentralRanking, full_space(2, 2))]
    ratio = max(probs) / min(probs)

    peaked = MallowsParams(CentralRanking((1, 2, 3)), 0.01, StageDomain(3))
    modal_mass = math.exp(log_pmf(peaked.center, peaked))

    ok = ratio <= 1.0 + 1e-3 and modal_mass >= 0.99
    _report(7, ok, f"limits: flat max/min pmf ratio {ratio:.6f} (tol 1+1e-3), "
                   f"concentrated modal mass {modal_mass:.4f} (tol >= 0.99)")
    assert ratio <= 1.0 + 1e-3
    assert modal_mass >= 0.99


def test_criterion_8_pipeline_smoke_test(tmp_path):
    """Bundled survey-shaped dataset fits end to end with offset labels."""
    ds = read_dataset(demo_dataset_path())
    rates = item_response_rates(ds) * 100
    published = np.array([76.7, 63.3, 56.7, 43.3, 60.0, 53.3, 60.0, 36.7])
    rates_ok = bool(np.all(np.abs(rates - published) <= 5.0))
    assert ds.items.n == 8 and ds.m == 30

    runner = CliRunner()
    prior = demo_dataset_path().parent / "wellbeing_survey_prior.json"
    result = runner.invoke(
        cli,
        [
            "fit", "--data", str(demo_dataset_path()),
            "--prior-center", str(prior),
            "--iterations", "1500", "--burn-in", "500",
            "--seed", "808", "--out-dir", str(tmp_path / "fit"),
        ],
        catch_exceptions=False,
    )
    report = json.loads((tmp_path / "fit" / "report.json").read_text())
    labels_ok = (
        report["stage_label_offset"] == 2
        and min(report["map_center_labels"]) >= 2
        and max(report["map_center_labels"]) <= 5
    )
    assert report["retained_samples"] == 1000
    ok = result.exit_code == 0 and rates_ok and labels_ok
    _report(8, ok, f"pipeline smoke test: exit {result.exit_code}, response rates "
                   f"within 5 points: {rates_ok}, labels start at 2: {labels_ok} "
                   f"(MAP labels {report['map_center_labels']})")
    assert result.exit_code == 0
    assert rates_ok
    assert labels_ok


def test_criterion_9_determinism(tmp_path):
    """Every command with a fixed seed yields byte-identical outputs."""
    runner = CliRunner()

    def invoke(args):
        result = runner.invoke(cli, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result.output

    identical = True
    sim_args = ["simulate", "--n", "6", "--l", "3", "--lambda", "1.2",
                "--center", "1,1,2,2,3,3", "--M", "30", "--missing-pct", "15",
                "--seed", "909"]
    invoke(sim_args + ["--out", str(tmp_path / "sim1")])
    invoke(sim_args + ["--out", str(tmp_path / "sim2")])
    for name in ("dataset.csv", "dataset.meta.json", "truth.json", "manifest.json"):
        identical &= (tmp_path / "sim1" / name).read_bytes() == (
            tmp_path / "sim2" / name
        ).read_bytes()

    fit_args = ["fit", "--data", str(tmp_path / "sim1" / "dataset.csv"),
                "--prior-center", "uniform-random", "--iterations", "400",
                "--burn-in", "200", "--seed", "910"]
    invoke(fit_args + ["--out-dir", str(tmp_path / "fit1")])
    invoke(fit_args + ["--out-dir", str(tmp_path / "fit2")])
    for name in ("report.json", "trace.ndjson", "heatmap.svg", "manifest.json"):
        identical &= (tmp_path / "fit1" / name).read_bytes() == (
            tmp_path / "fit2" / name
        ).read_bytes()

    eval_args = ["eval", "--repeats", "2", "--n", "4", "--l", "3",
                 "--lambda", "1.0", "--center", "1,2,2,3", "--M", "12",
                 "--iterations", "150", "--burn-in", "50", "--seed", "911"]
    invoke(eval_args + ["--out", str(tmp_path / "ev1")])
    invoke(eval_args + ["--out", str(tmp_path / "ev2")])
    for name in ("eval.csv", "manifest.json"):
        identical &= (tmp_path / "ev1" / name).read_bytes() == (
            tmp_path / "ev2" / name
        ).read_bytes()

    from stagemallows.io import write_ranking_file

    write_ranking_file((1, 2, None, 3), tmp_path / "a.json")
    write_ranking_file((2, 1, 3, 3), tmp_path / "b.json")
    out1 = invoke(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    out2 = invoke(["distance", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    identical &= out1 == out2

    _report(9, identical, "byte-identical artifacts across re-runs of "
                          "simulate, fit, eval, and distance")
    assert identical
