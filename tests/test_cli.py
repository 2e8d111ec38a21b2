import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from stagemallows.cli import cli
from stagemallows.io import demo_dataset_path, read_dataset, read_trace, write_ranking_file


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def simulate(runner, out, seed=3, missing="10", m="25", extra=()):
    return run_ok(
        runner,
        [
            "simulate", "--n", "5", "--l", "3", "--lambda", "1.0",
            "--center", "1,2,2,3,3", "--M", m, "--missing-pct", missing,
            "--seed", str(seed), "--out", str(out),
        ] + list(extra),
    )


class TestSimulate:
    def test_writes_expected_files(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim")
        for name in ("dataset.csv", "dataset.meta.json", "truth.json", "manifest.json"):
            assert (tmp_path / "sim" / name).exists()

    def test_dataset_reads_back(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim")
        ds = read_dataset(tmp_path / "sim" / "dataset.csv")
        assert ds.items.n == 5
        assert ds.m == 25

    def test_truth_records_censored_respondents(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", missing="20", m="20")
        truth = json.loads((tmp_path / "sim" / "truth.json").read_text())
        assert truth["center_internal"] == [1, 2, 2, 3, 3]
        assert truth["lambda"] == 1.0
        assert len(truth["censored_respondents"]) == 4
        assert truth["manifest"]["subcommand"] == "simulate"

    def test_zero_missing_means_complete(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", missing="0")
        ds = read_dataset(tmp_path / "sim" / "dataset.csv")
        assert all(r.is_complete for _, r in ds.responses)

    def test_byte_identical_reruns(self, runner, tmp_path):
        simulate(runner, tmp_path / "a", seed=11)
        simulate(runner, tmp_path / "b", seed=11)
        for name in ("dataset.csv", "dataset.meta.json", "truth.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_center_and_center_random_exclusive(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["simulate", "--n", "3", "--l", "2", "--lambda", "1", "--M", "5",
             "--center", "1,1,2", "--center-random", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    # int() alone reads "1_0" as 10 and the Arabic-Indic digit three as 3.
    @pytest.mark.parametrize("token", ["1_0", "\u0663"])
    def test_center_stages_are_ascii_digits(self, runner, tmp_path, token):
        result = runner.invoke(
            cli,
            ["simulate", "--n", "3", "--l", "10", "--lambda", "1", "--M", "5",
             "--center", f"{token},1,2", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2, result.output
        assert "--center must be a ranking file or a comma list of stages" in result.output

    def test_capacity_exit_code(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["simulate", "--n", "30", "--l", "4", "--lambda", "1",
             "--center-random", "--M", "5", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3
        assert "4^30" in result.output or "exceeds" in result.output

    # 4^8000 has more decimal digits than Python converts to a string, and
    # a random center of 10^12 items would not fit in memory.
    @pytest.mark.parametrize("n", ["8000", "1000000000000"])
    def test_capacity_exit_code_for_huge_spaces(self, runner, tmp_path, n):
        result = runner.invoke(
            cli,
            ["simulate", "--n", n, "--l", "4", "--lambda", "1",
             "--center-random", "--M", "1", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        assert f"4^{n} points" in result.output

    @pytest.mark.parametrize("n,l", [("10", "10"), ("20000", "1")])
    def test_byte_budget_exit_code(self, runner, tmp_path, n, l):
        result = runner.invoke(
            cli,
            ["simulate", "--n", n, "--l", l, "--lambda", "1",
             "--center-random", "--M", "5", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3
        assert "bytes" in result.output

    def test_exact_count_limit_exit_code(self, runner, tmp_path):
        # 200^9 is past 2^63, where the program's int64 counts would wrap.
        result = runner.invoke(
            cli,
            ["simulate", "--n", "9", "--l", "200", "--lambda", "1",
             "--center-random", "--M", "5", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        assert "2^63" in result.output

    def test_missing_required_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["simulate", "--n", "3"])
        assert result.exit_code == 2

    # 10^12 draws would need terabytes; they are refused before any is made.
    @pytest.mark.parametrize("command", ["simulate", "eval"])
    def test_respondent_count_capacity_exit_code(self, runner, tmp_path, command):
        result = runner.invoke(
            cli,
            [command, "--n", "3", "--l", "2", "--lambda", "1",
             "--center-random", "--M", "1000000000000", "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        assert "1000000000000 draws" in result.output

    # 10^12 retained samples: the chain's trace is refused before it starts.
    @pytest.mark.parametrize("args", [
        ["fit", "--data", str(demo_dataset_path()), "--prior-center", "uniform-random",
         "--out-dir"],
        ["eval", "--n", "3", "--l", "2", "--lambda", "1", "--center-random", "--M", "5",
         "--out"],
    ], ids=["fit", "eval"])
    def test_retained_sample_capacity_exit_code(self, runner, tmp_path, args):
        result = runner.invoke(
            cli, args + [str(tmp_path / "x"), "--iterations", "1000000000000"]
        )
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        assert "999999999500 draws" in result.output


class TestFit:
    def fit_args(self, data, out, extra=()):
        return [
            "fit", "--data", str(data), "--prior-center", "uniform-random",
            "--iterations", "300", "--burn-in", "100", "--seed", "5",
            "--out-dir", str(out),
        ] + list(extra)

    def test_end_to_end_with_truth_evaluation(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", seed=2)
        result = run_ok(
            runner, self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "fit")
        )
        assert "MAP center" in result.output
        assert "MAP lambda" in result.output
        assert "acceptance rates" in result.output
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["evaluation"] is not None
        assert "dp_to_truth" in report["evaluation"]
        assert "lambda_abs_error" in report["evaluation"]
        for name in ("report.json", "trace.ndjson", "heatmap.svg", "manifest.json"):
            assert (tmp_path / "fit" / name).exists()

    def test_twelve_items_over_four_stages(self, runner, tmp_path):
        # 4^12 points: past what enumeration could hold, well within the program.
        run_ok(runner, ["simulate", "--n", "12", "--l", "4", "--lambda", "1",
                        "--center-random", "--M", "5", "--out", str(tmp_path / "sim")])
        run_ok(runner, self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "fit",
                                     ["--iterations", "30", "--burn-in", "10"]))

    def test_retained_sample_count(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", seed=4, missing="0")
        run_ok(
            runner,
            self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "fit"),
        )
        records = read_trace(tmp_path / "fit" / "trace.ndjson")
        assert len(records) == 200
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["retained_samples"] == 200

    def test_prior_center_file(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", seed=6)
        prior_path = tmp_path / "prior.json"
        write_ranking_file((1, 2, 2, 3, 3), prior_path)
        run_ok(
            runner,
            [
                "fit", "--data", str(tmp_path / "sim" / "dataset.csv"),
                "--prior-center", str(prior_path), "--iterations", "200",
                "--burn-in", "100", "--seed", "1", "--out-dir", str(tmp_path / "fit"),
            ],
        )
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["manifest"]["config"]["prior_center"] == [1, 2, 2, 3, 3]

    def test_missing_data_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["fit", "--out-dir", str(tmp_path)])
        assert result.exit_code == 2

    def test_unreadable_data_exits_two(self, runner, tmp_path):
        result = runner.invoke(
            cli, self.fit_args(tmp_path / "nope.csv", tmp_path / "fit")
        )
        assert result.exit_code == 2

    def test_nonfinite_initialization_exits_four(self, runner, tmp_path):
        # A subnormal starting spread makes the initial log-likelihood -inf.
        simulate(runner, tmp_path / "sim", seed=12)
        result = runner.invoke(
            cli,
            self.fit_args(
                tmp_path / "sim" / "dataset.csv",
                tmp_path / "fit",
                extra=["--lambda-init", "1e-320"],
            ),
        )
        assert result.exit_code == 4
        assert "log-likelihood" in result.output

    def test_byte_identical_reruns(self, runner, tmp_path):
        simulate(runner, tmp_path / "sim", seed=8)
        run_ok(runner, self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "f1"))
        run_ok(runner, self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "f2"))
        for name in ("report.json", "trace.ndjson", "heatmap.svg", "manifest.json"):
            assert (tmp_path / "f1" / name).read_bytes() == (
                tmp_path / "f2" / name
            ).read_bytes()

    def test_bundled_dataset_labels_respect_offset(self, runner, tmp_path):
        run_ok(
            runner,
            [
                "fit", "--data", str(demo_dataset_path()),
                "--prior-center", str(demo_dataset_path().parent / "wellbeing_survey_prior.json"),
                "--iterations", "200", "--burn-in", "100", "--seed", "9",
                "--out-dir", str(tmp_path / "fit"),
            ],
        )
        report = json.loads((tmp_path / "fit" / "report.json").read_text())
        assert report["stage_label_offset"] == 2
        assert min(report["map_center_labels"]) >= 2

    # A byte 0xff in each file that fit reads. The data row's byte sits on
    # line 3,001, far past the reader's first decoded block, so the decoder
    # fails rows before the reader reaches it.
    @pytest.mark.parametrize("where", ["row", "header", "sidecar", "prior"])
    def test_bytes_that_are_not_utf8_are_a_format_error(self, runner, tmp_path, where):
        header = b"respondent_id,item,st\xffage\n" if where == "header" else (
            b"respondent_id,item,stage\n")
        rows = [f"R{k},{item},{1 + k % 2}\n".encode() for k in range(2000) for item in "ab"]
        if where == "row":
            rows[2999] = rows[2999].replace(b"\n", b"\xff\n")
        (tmp_path / "data.csv").write_bytes(header + b"".join(rows))
        (tmp_path / "data.meta.json").write_bytes(
            b'{"items": ["a", "b"], "l": 2, "stage_label_offset": 1, "provenance": "'
            + (b"\xff" if where == "sidecar" else b"") + b'"}')
        (tmp_path / "prior.json").write_bytes(
            b'{"stages": [1, 2]}\n' + (b"\xff\n" if where == "prior" else b""))
        result = runner.invoke(cli, [
            "fit", "--data", str(tmp_path / "data.csv"),
            "--prior-center", str(tmp_path / "prior.json"), "--iterations", "4",
            "--burn-in", "2", "--out-dir", str(tmp_path / "fit"),
        ])
        assert result.exit_code == 2, result.output
        assert "Usage" not in result.output
        name, line = {"row": ("data.csv", 3001), "header": ("data.csv", 1),
                      "sidecar": ("data.meta.json", 1), "prior": ("prior.json", 2)}[where]
        assert f"{tmp_path / name}: line {line} is not UTF-8 text" in result.output


    @pytest.mark.parametrize(
        "text",
        [
            '{"center_internal": [1, 2, 2, 3, 3], "lambda": "1.0.0"}',
            '{"center_internal": [1, 2, "two", 3, 3], "lambda": 1.0}',
            '{"center_internal": [1, 2, 2, 3, 3], "lambda": ',
            '{"center_internal": [1, 2.9, 2, 3, 3], "lambda": 1.0}',
            '{"center_internal": [1, 2, 2, 3, 7], "lambda": 1.0}',
        ],
        ids=["non-numeric-lambda", "non-numeric-center", "invalid-json",
             "non-integral-center", "center-outside-stages"],
    )
    def test_bad_truth_exits_two_before_the_chain(self, runner, tmp_path, monkeypatch, text):
        simulate(runner, tmp_path / "sim", seed=2)
        (tmp_path / "sim" / "truth.json").write_text(text)
        chains = []
        monkeypatch.setattr("stagemallows.cli.mcmc_fit", lambda *a, **k: chains.append(a))
        result = runner.invoke(
            cli, self.fit_args(tmp_path / "sim" / "dataset.csv", tmp_path / "fit")
        )
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "truth.json" in result.output
        assert chains == []
        assert not (tmp_path / "fit").exists()


class TestEval:
    def test_single_repeat_table(self, runner, tmp_path):
        run_ok(
            runner,
            [
                "eval", "--repeats", "1", "--n", "4", "--l", "3",
                "--lambda", "0.8", "--center", "1,2,2,3", "--M", "15",
                "--iterations", "200", "--burn-in", "100",
                "--seed", "3", "--out", str(tmp_path / "ev"),
            ],
        )
        lines = (tmp_path / "ev" / "eval.csv").read_text().strip().splitlines()
        assert lines[0] == "repeat,seed,lambda_mae,dp_to_truth"
        assert len(lines) == 3  # header, one repeat, mean
        row = lines[1].split(",")
        mean = lines[2].split(",")
        assert row[0] == "0"
        assert mean[0] == "mean"
        assert float(mean[2]) == float(row[2])
        assert float(mean[3]) == float(row[3])

    def test_distinct_seeds_give_distinct_rows(self, runner, tmp_path):
        run_ok(
            runner,
            [
                "eval", "--repeats", "3", "--n", "3", "--l", "2",
                "--lambda", "1.0", "--center", "1,1,2", "--M", "10",
                "--iterations", "120", "--burn-in", "20",
                "--seed", "7", "--out", str(tmp_path / "ev"),
            ],
        )
        lines = (tmp_path / "ev" / "eval.csv").read_text().strip().splitlines()
        seeds = [line.split(",")[1] for line in lines[1:-1]]
        assert len(set(seeds)) == 3

    def test_byte_identical_reruns(self, runner, tmp_path):
        args = [
            "eval", "--repeats", "2", "--n", "3", "--l", "2",
            "--lambda", "1.0", "--center", "1,1,2", "--M", "10",
            "--iterations", "100", "--burn-in", "50", "--seed", "13",
        ]
        run_ok(runner, args + ["--out", str(tmp_path / "e1")])
        run_ok(runner, args + ["--out", str(tmp_path / "e2")])
        assert (tmp_path / "e1" / "eval.csv").read_bytes() == (
            tmp_path / "e2" / "eval.csv"
        ).read_bytes()


class TestDistance:
    def test_identical_files(self, runner, tmp_path):
        path = tmp_path / "r.json"
        write_ranking_file((1, 2, 3), path)
        result = run_ok(runner, ["distance", str(path), str(path)])
        assert "d_p = 0.0" in result.output
        assert "discordant pairs: 0" in result.output

    def test_adjacent_swap(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_ranking_file((1, 2, 3), a)
        write_ranking_file((2, 1, 3), b)
        result = run_ok(runner, ["distance", str(a), str(b)])
        assert "d_p = 1.0" in result.output

    def test_missing_entry_drops_pairs(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_ranking_file((1, None, 3, 2), a)
        write_ranking_file((1, 2, 3, 2), b)
        result = run_ok(runner, ["distance", str(a), str(b)])
        assert "dropped: 3" in result.output

    def test_stages_beyond_int64_compare_exactly(self, runner, tmp_path):
        # In float64 the three stages are equal, so every pair would tie in both.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_ranking_file((2**70, 2**70 + 1, 2**70), a)
        write_ranking_file((2**70 + 1, 2**70, 2**70), b)
        result = run_ok(runner, ["distance", str(a), str(b)])
        assert "d_p = 2.0" in result.output
        assert ("discordant pairs: 1, tied in one: 2, dropped: 0, concordant: 0, "
                "tied in both: 0") in result.output

    def test_mismatched_lengths_exit_two(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_ranking_file((1, 2), a)
        write_ranking_file((1, 2, 3), b)
        result = runner.invoke(cli, ["distance", str(a), str(b)])
        assert result.exit_code == 2


_SIMULATE = ["simulate", "--n", "4", "--l", "3", "--lambda", "1", "--M", "5"]
_FIT = [
    "fit", "--data", str(demo_dataset_path()),
    "--prior-center", str(demo_dataset_path().parent / "wellbeing_survey_prior.json"),
    "--iterations", "20", "--burn-in", "10",
]


_DATA = "respondent_id,item,stage\nR1,a,1\nR1,b,2\nR1,c,1\nR2,a,2\nR2,b,1\nR2,c,2\n"
_INVALID_FILES = {
    "stage-1.7.json": '{"stages": [1.7, 2, 1]}',
    "offset-1.5.json": '{"stages": [1, 2, 1], "stage_label_offset": 1.5}',
    "stages-121.json": '{"stages": [1, 2, 1]}',
    "l-2.5.csv": _DATA,
    "l-2.5.meta.json": '{"items": ["a", "b", "c"], "l": 2.5, "stage_label_offset": 1}',
    "offset-1.5.csv": _DATA,
    "offset-1.5.meta.json": '{"items": ["a", "b", "c"], "l": 2, "stage_label_offset": 1.5}',
    # JSON booleans, which int() would read as 1: l = 1 fits this data.
    "stage-true.json": '{"stages": [true, 2, 3]}',
    "offset-true.json": '{"stages": [1, 2, 1], "stage_label_offset": true}',
    "stages-111.json": '{"stages": [1, 1, 1]}',
    "l-true.csv": "respondent_id,item,stage\nR1,a,1\nR1,b,1\nR1,c,1\n",
    "l-true.meta.json": '{"items": ["a", "b", "c"], "l": true, "stage_label_offset": 1}',
}


@pytest.mark.parametrize(
    "args",
    [
        _FIT + ["--min-response-rate", "2"],
        _FIT + ["--min-response-rate", "-0.5"],
        _FIT + ["--min-response-rate", "nan"],
        ["simulate", "--n", "3", "--l", "3", "--lambda", "1", "--M", "5",
         "--center", "1,2,9"],
        ["simulate", "--n", "0", "--l", "3", "--lambda", "1", "--M", "5",
         "--center-random"],
        ["simulate", "--n", "-1", "--l", "3", "--lambda", "1", "--M", "5",
         "--center-random"],
        _SIMULATE + ["--center-random", "--missing-pct", "50", "--censor-scale", "inf"],
        _SIMULATE + ["--center-random", "--missing-pct", "50",
                     "--censor-location-factor", "nan"],
        _FIT + ["--lambda-init", "inf"],
        _FIT + ["--proposal-scale", "nan"],
        _FIT + ["--prior-spread", "inf"],
        _FIT + ["--normalization", "global"],
        ["distance", "file:stage-1.7.json", "file:stages-121.json"],
        ["distance", "file:offset-1.5.json", "file:stages-121.json"],
        ["simulate", "--n", "3", "--l", "3", "--lambda", "1", "--M", "5",
         "--center", "file:stage-1.7.json"],
        ["fit", "--data", "file:l-2.5.csv", "--prior-center", "file:stages-121.json"],
        ["fit", "--data", "file:offset-1.5.csv", "--prior-center", "file:stages-121.json"],
        ["distance", "file:stage-true.json", "file:stages-121.json"],
        ["distance", "file:offset-true.json", "file:stages-121.json"],
        ["fit", "--data", "file:l-true.csv", "--prior-center", "file:stages-111.json"],
    ],
    ids=[
        "min-response-rate-above-one",
        "negative-min-response-rate",
        "nan-min-response-rate",
        "center-outside-stages",
        "zero-items",
        "negative-items",
        "infinite-censor-scale",
        "nan-censor-location",
        "infinite-lambda-init",
        "nan-proposal-scale",
        "infinite-prior-spread",
        "removed-normalization-option",
        "non-integral-stage",
        "non-integral-offset",
        "non-integral-center-file",
        "non-integral-sidecar-l",
        "non-integral-sidecar-offset",
        "boolean-stage",
        "boolean-offset",
        "boolean-sidecar-l",
    ],
)
def test_invalid_input_exits_two_without_traceback(runner, tmp_path, args):
    # "file:NAME" stands for a file of _INVALID_FILES, written to tmp_path.
    for name, text in _INVALID_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = [str(tmp_path / arg[5:]) if arg.startswith("file:") else arg for arg in args]
    if args[0] != "distance":
        args += ["--out-dir" if args[0] == "fit" else "--out", str(tmp_path / "out")]
    result = runner.invoke(cli, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "Error" in result.output or "error" in result.output


# Each fuzz example starts from a valid command and breaks up to three of
# its inputs: a flag set to a boundary value, or a malformed file.
_BOUNDARIES = ["0", "-1", "nan", "inf", "-inf", str(2**64), "x"]
_SIMULATE_FLAGS = {
    "--n": ["4", "40", "129", "1000000000000"],
    "--l": ["3", "1", "2", "1000000", "1000000000000"],
    "--M": ["4", "1"],
    "--lambda": ["1", "1e-300", "1e300"],
    "--p": ["0.5", "1"],
    "--missing-pct": ["50", "0", "100", "101"],
}


def assert_clean_exit(result):
    assert result.exit_code in {0, 2, 3, 4}, (result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@given(st.lists(st.sampled_from([
    (flag, value) for flag, values in _SIMULATE_FLAGS.items() for value in values + _BOUNDARIES
]), max_size=3))
@settings(max_examples=40, deadline=None)
def test_simulate_flags_never_crash(changes):
    flags = {flag: values[0] for flag, values in _SIMULATE_FLAGS.items()} | dict(changes)
    with tempfile.TemporaryDirectory() as out:
        result = CliRunner().invoke(cli, ["simulate", "--center-random", "--out", out,
                                          *(arg for pair in flags.items() for arg in pair)])
    assert_clean_exit(result)


_SIDECAR = {"items": ["a", "b", "c"], "l": 2, "stage_label_offset": 1}
_FIT_INPUTS = {
    "csv": ["respondent_id,item,stage\nR1,a,1\nR1,b,2\nR2,a,2\nR2,c,\nR2,b,1\nR3,c,2\n",
            "", "\udcff\udcfe not utf-8", "respondent_id,item\nR1,a\n",
            "respondent_id,item,stage\nR1,a\n", "respondent_id,item,stage\nR1,z,1\n",
            "respondent_id,item,stage\nR1,a,x\n", "respondent_id,item,stage\nR1,a,9\n",
            "respondent_id,item,stage\nR1,a,1\nR1,a,2\n", "respondent_id,item,stage\nR1,a,\n",
            "respondent_id,item,stage\nR1,a,1e400\n", "respondent_id,item,stage\nR1,a,1\x00\n"],
    "sidecar": [json.dumps({**_SIDECAR, key: value}) for key, value in [
        ("l", 2), ("items", 3), ("items", []), ("items", ["a", "a", "b"]), ("l", "x"),
        ("l", 0), ("l", -2), ("l", [2]), ("l", None), ("l", 10**30),
        ("stage_label_offset", "x"), ("stage_label_offset", [1]),
        ("stage_label_offset", 10**30), ("l", 2.0), ("l", 2.5), ("stage_label_offset", 1.5),
    ]] + ["{", "[]", "3", "null", '{"items": ["a", "b", "c"]}',
          '{"items": ["a", "b", "c"], "l": 1e400, "stage_label_offset": 1}'],
    "prior": ['{"stages": [1, 2, 1]}', "{", "[1, 2, 1]", '{"stages": 3}',
              '{"stages": "ab"}', '{"stages": [1, null, 2]}', '{"stages": [1, "x", 2]}',
              '{"stages": [1, 2]}', '{"stages": []}', '{"stages": [1, 9, 2]}',
              '{"stages": [1e400, 2, 1]}', '{"stages": [{"a": 1}, 2, 1]}',
              '{"stages": [1, 2, 1], "stage_label_offset": "x"}',
              '{"stages": [1, 2, 1], "stage_label_offset": [1]}',
              '{"stages": [1, 2, 1], "stage_label_offset": 1e400}',
              '{"stages": [1.7, 2, 1]}', '{"stages": [1.0, 2, 1]}',
              '{"stages": [1, 2, 1], "stage_label_offset": 1.5}'],
    "--lambda-init": ["1", "1e-300", "1e300"] + _BOUNDARIES,
    "--p": ["0.5", "1"] + _BOUNDARIES,
    "--prior-spread": ["1", "1e-300"] + _BOUNDARIES,
}


@given(st.lists(st.sampled_from([
    (name, value) for name, values in _FIT_INPUTS.items() for value in values
]), max_size=3))
@settings(max_examples=40, deadline=None)
def test_fit_inputs_never_crash(changes):
    inputs = {name: values[0] for name, values in _FIT_INPUTS.items()} | dict(changes)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text(inputs.pop("csv"), encoding="utf-8",
                                      errors="surrogateescape")
        (tmp / "data.meta.json").write_text(inputs.pop("sidecar"), encoding="utf-8")
        (tmp / "prior.json").write_text(inputs.pop("prior"), encoding="utf-8")
        result = CliRunner().invoke(cli, [
            "fit", "--data", str(tmp / "data.csv"), "--prior-center", str(tmp / "prior.json"),
            "--iterations", "4", "--burn-in", "2", "--out-dir", str(tmp / "out"),
            *(arg for pair in inputs.items() for arg in pair),
        ])
    assert_clean_exit(result)
