import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reduktor.cli import complex_to_pairs, main
from reduktor.presets import spin_flip_model

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(path, **overrides):
    """The spin-flip model's config, or a constant source's if constant_M is given."""
    model = spin_flip_model()
    cfg = {
        "n": 2,
        "n2": 1,
        "B": complex_to_pairs(model.blocks),
        "nu": 1.0,
        "grid": {"t_max": 2.0, "steps": 200},
        "R": 2000,
        "seed": 9,
    }
    if "constant_M" in overrides:  # one source per config
        for key in ("n", "n2", "B"):
            del cfg[key]
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_missing_config(self, capsys):
        assert run(["solve", "--config", "nope.json"]) == 1

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["solve", "--config", cfg]) == 1

    def test_missing_grid(self, tmp_path):
        cfg = tmp_path / "nogrid.json"
        cfg.write_text(json.dumps({"n": 2, "n2": 1, "B": []}))
        assert run(["solve", "--config", cfg]) == 1

    def test_invalid_model(self, tmp_path, capsys):
        bad = np.zeros((1, 1, 2, 2), dtype=complex)
        bad[0, 0] = [[0.0, 1.0], [0.0, 0.0]]  # not Hermitian
        cfg = write_config(tmp_path / "cfg.json", B=complex_to_pairs(bad))
        assert run(["solve", "--config", cfg]) == 2

    @pytest.mark.parametrize("source", [
        {"constant_M": [[float("nan"), 0.5], [0.5, 0.5]]},
        {"B": [[[[[float("nan"), 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]]},
    ])
    def test_non_finite_input_writes_nothing(self, tmp_path, source):
        cfg = write_config(tmp_path / "cfg.json", **source)
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("matrix", [[[1, 0, 0], [0, 1, 0]], [0.5, 0.5], [[[1.0]]]],
                             ids=["2x3", "vector", "3-d"])
    def test_non_square_constant_source_writes_nothing(self, tmp_path, capsys, matrix):
        cfg = write_config(tmp_path / "cfg.json", constant_M=matrix)
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert "square matrix" in capsys.readouterr().err

    def test_out_into_a_missing_directory_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["solve", "--config", CONFIGS / "spin_flip.json", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_numerical_failure(self, tmp_path):
        # a source that is not doubly stochastic is an input error, exit 2
        cfg = write_config(tmp_path / "cfg.json",
                           constant_M=[[0.7, 0.4], [0.4, 0.7]])
        assert run(["solve", "--config", cfg]) == 2

    @pytest.mark.parametrize("matrix", [
        [[0.5, 0.6, 0.0], [0.5, 0.4, 0.0], [0.0, 0.0, 1.0]],
        [[1.2, -0.1, -0.1], [-0.1, 0.6, 0.5], [-0.1, 0.5, 0.6]]],
        ids=["row-sums", "negative-entry"])
    @pytest.mark.parametrize("command", ["solve", "series", "simulate", "compare", "asymptote"])
    def test_source_not_doubly_stochastic_is_an_input_error(self, tmp_path, capsys, command,
                                                            matrix):
        cfg = write_config(tmp_path / "cfg.json", constant_M=matrix)
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("validation error: ")

    def test_singular_step_is_numerical_failure(self, tmp_path, capsys):
        # h nu / 2 = 1 makes the implicit step I - M(0) singular
        cfg = write_config(tmp_path / "cfg.json", nu=2.0,
                           constant_M=[[0.5, 0.5], [0.5, 0.5]],
                           grid={"t_max": 2.0, "steps": 2})
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out]) == 3
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err


class TestSolve:
    def test_writes_trajectory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,entry_0_0")
        assert len(lines) == 202
        summary = capsys.readouterr().out
        assert "final c(Mbar)" in summary

    def test_nu_zero_returns_input(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", nu=0.0,
                           grid={"t_max": 1.0, "steps": 50})
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        model = spin_flip_model()
        sampled = model.m_many(body[:, 0]).reshape(len(body), -1)
        np.testing.assert_allclose(body[:, 1:], sampled, atol=1e-12)

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "traj.csv"
        assert run(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["solve", "--config", cfg, "--out", a, "--quiet"])
        run(["solve", "--config", cfg, "--out", b, "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_constant_matrix_source(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json",
                           constant_M=[[0.5, 0.3, 0.2], [0.3, 0.4, 0.3],
                                       [0.2, 0.3, 0.5]])
        out = tmp_path / "c.csv"
        assert run(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert body.shape == (201, 10)


class TestSimulate:
    def test_output_blocks(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "mc.csv"
        assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
        text = out.read_text()
        assert "# mean" in text and "# stderr" in text

    def test_zero_rate_zero_stderr(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", nu=0.0)
        out = tmp_path / "mc.csv"
        run(["simulate", "--config", cfg, "--out", out, "--quiet"])
        stderr_rows = out.read_text().split("# stderr\n")[1].strip().split("\n")
        vals = [float(x) for row in stderr_rows for x in row.split(",")]
        assert max(vals) == 0.0

    def test_zero_rate_draws_no_history(self, tmp_path, capsys):
        # no stratum forms, so none of the config's R histories is drawn
        cfg = write_config(tmp_path / "cfg.json", nu=0.0)
        out = tmp_path / "mc.csv"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        assert "# histories=0\n" in out.read_text()
        assert capsys.readouterr().out.endswith(" over 0 histories\n")

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for w in (1, 2, 8):
            out = tmp_path / f"mc{w}.csv"
            assert run(["simulate", "--config", cfg, "--out", out,
                        "--workers", w, "--quiet"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--config", cfg, "--out", a, "--seed", 1, "--quiet"])
        run(["simulate", "--config", cfg, "--out", b, "--seed", 2, "--quiet"])
        assert a.read_bytes() != b.read_bytes()

    def test_seed_range(self, tmp_path, capsys):
        # the whole uint64 range keys its own streams; 2**64 is a config error
        cfg = write_config(tmp_path / "cfg.json")
        texts = []
        for seed in (0, 2**64 - 1, -1):
            out = tmp_path / f"mc{seed}.csv"
            assert run(["simulate", "--config", cfg, "--out", out, "--seed", seed,
                        "--quiet"]) == 0
            texts.append(out.read_text().split("# mean\n")[1])
        assert texts[0] != texts[1] == texts[2]
        for command in ("simulate", "compare"):
            out = tmp_path / f"{command}-too-big.txt"
            assert run([command, "--config", cfg, "--out", out, "--seed", 2**64]) == 1
            assert "config error: seed must lie in" in capsys.readouterr().err
            assert not out.exists()


class TestCompare:
    def test_healthy_model_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert run(["compare", "--config", cfg]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["overall_pass"] is True
        assert verdict["pairs"]["march_vs_series"]["pass"] is True
        assert verdict["pairs"]["march_vs_mc"]["pass"] is True

    def test_coarse_grid_fails_with_advice(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"t_max": 2.0, "steps": 2})  # h * nu = 1
        assert run(["compare", "--config", cfg]) == 3
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["overall_pass"] is False
        pair = verdict["pairs"]["march_vs_series"]
        assert pair["pass"] is False
        assert "advice" in pair

    def test_nu_zero_all_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", nu=0.0)
        assert run(["compare", "--config", cfg]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["pairs"]["march_vs_series"]["max_abs"] < 1e-12
        assert verdict["pairs"]["march_vs_mc"]["max_abs"] < 1e-12

    def test_shipped_constant_matrix(self, tmp_path):
        # the shipped matrix at nu T = 10: about 30 series levels at K = 1000
        shipped = json.loads((CONFIGS / "constant_matrix.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(shipped, grid={"t_max": 10.0, "steps": 1000},
                                       R=2000)))
        out = tmp_path / "verdict.json"
        assert run(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
        verdict = json.loads(out.read_text())
        assert verdict["pairs"]["march_vs_series"]["max_abs"] < 1e-12

    def test_too_few_histories_fail_before_any_solver(self, tmp_path, capsys, monkeypatch):
        import reduktor.volterra

        def march_solve(*args, **kwargs):
            raise AssertionError("compare marched before it checked R")

        monkeypatch.setattr(reduktor.volterra, "march_solve", march_solve)
        cfg = write_config(tmp_path / "cfg.json", R=50)
        out = tmp_path / "verdict.json"
        assert run(["compare", "--config", cfg, "--out", out]) == 1
        assert not out.exists()
        assert "config error: need at least 100 histories, got 50" in capsys.readouterr().err

    def test_march_error_estimate_widens_the_mc_band(self, tmp_path):
        # on a constant source every stratum of the Monte Carlo is exact, so
        # its gap to the march is the march's own O(h^2) error, which the
        # band covers by the march at half the steps
        shipped = json.loads((CONFIGS / "constant_matrix.json").read_text())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(shipped, grid={"t_max": 10.0, "steps": 1000},
                                       R=2000)))
        out = tmp_path / "verdict.json"
        assert run(["compare", "--config", cfg, "--out", out, "--quiet"]) == 0
        pair = json.loads(out.read_text())["pairs"]["march_vs_mc"]
        assert pair["pass"] is True and pair["entries_within"] == 9
        assert 1e-12 < pair["max_abs"] < pair["march_err"] < 1e-6


@pytest.mark.parametrize("command, shipped", [
    ("solve", "spin_flip.json"), ("series", "spin_flip.json"),
    ("simulate", "spin_flip.json"), ("compare", "spin_flip.json"),
    ("asymptote", "spin_flip.json"), ("scalar", "scalar_alternating.json"),
])
def test_missing_nu_is_config_error(tmp_path, capsys, command, shipped):
    # no command falls back to a default reduction rate
    cfg = json.loads((CONFIGS / shipped).read_text())
    del cfg["nu"]
    cfg["grid"] = {"t_max": 2.0, "steps": 200}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "nu" in captured.err


@pytest.mark.parametrize("command", ["compare", "asymptote", "genericity"])
def test_thresholds_key_is_config_error(tmp_path, capsys, monkeypatch, command):
    # the checks' thresholds are fixed: a config that sets one, even to its
    # fixed value, is refused before the command reads anything else
    def grid_from(cfg):
        raise AssertionError(f"{command} read its grid before it refused thresholds")

    monkeypatch.setattr("reduktor.cli._grid_from", grid_from)
    cfg = write_config(tmp_path / "cfg.json", thresholds={"mc_sigmas": 3.0})
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: config key 'thresholds' is not supported" in captured.err
    for fixed in ("solver_vs_series 1e-06", "mc_sigmas 3", "eps_conv 0.001", "delta 0.999"):
        assert fixed in captured.err


@pytest.mark.parametrize("command", ["series", "compare"])
@pytest.mark.parametrize("n_max", [-1, -3])
def test_negative_series_order_is_config_error(tmp_path, capsys, command, n_max):
    # refused before any solver runs or any verdict is written
    cfg = write_config(tmp_path / "cfg.json", N_max=n_max)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: series order n_max must be >= 0, got {n_max}" in captured.err


@pytest.mark.parametrize("key", ["histories", "N_max_", "grid.step", "scalar.amplitud"])
@pytest.mark.parametrize("command", ["solve", "simulate", "compare", "scalar"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, command, key):
    # a misspelt key would otherwise leave its setting at the default
    scalar = json.loads((CONFIGS / "scalar_cosine.json").read_text())["scalar"]
    cfg = json.loads(write_config(tmp_path / "cfg.json", scalar=scalar).read_text())
    name, _, sub = key.partition(".")
    (cfg[name] if sub else cfg)[sub or name] = 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: unknown config key(s) {key!r}; no command reads them" in captured.err


SYM = [[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]
TRIG = {"variant": "trig", "mean": 0.5, "amplitude": 0.5}
MODEL = {"n": 2, "n2": 1, "B": complex_to_pairs(spin_flip_model().blocks)}
UNREAD_OR_EXTRA_SOURCE = {  # command, keys the config adds, the refused key, the message
    "constant-tau": ("scalar", {"scalar": {"variant": "constant", "value": 0.5, "tau": 2.0}},
                     "scalar.tau", "unknown config key(s)"),
    "piecewise-value": ("scalar", {"scalar": {"variant": "piecewise", "tau": 0.5,
                                              "value": 0.5}}, "scalar.value",
                        "unknown config key(s)"),
    "trig-times": ("scalar", {"scalar": {**TRIG, "times": [0.0, 2.0]}}, "scalar.times",
                   "unknown config key(s)"),
    "tabulated-mean": ("scalar", {"scalar": {"variant": "tabulated", "times": [0.0, 2.0],
                                             "values": [1.0, 0.5], "mean": 0.5}},
                       "scalar.mean", "unknown config key(s)"),
    "constant_M-and-model-solve": ("solve", {"constant_M": SYM, **MODEL}, "constant_M",
                                   "more than one source"),
    "constant_M-and-model-genericity": ("genericity", {"constant_M": SYM, **MODEL},
                                        "constant_M", "more than one source"),
    "constant_M-and-basis": ("simulate", {"constant_M": SYM, "basis": [[[1.0, 0.0]]]},
                             "basis", "more than one source"),
    "scalar-and-model": ("scalar", {"scalar": TRIG, **MODEL}, "n2",
                         "more than one source"),
    "scalar-and-constant_M": ("solve", {"scalar": TRIG, "constant_M": SYM}, "scalar",
                              "more than one source"),
}


@pytest.mark.parametrize("command, keys, refused, message", UNREAD_OR_EXTRA_SOURCE.values(),
                         ids=UNREAD_OR_EXTRA_SOURCE.keys())
def test_unread_key_or_second_source_is_config_error(tmp_path, capsys, monkeypatch, command,
                                                      keys, refused, message):
    # a scalar key that the variant does not read, or a second source, would
    # otherwise be ignored; both are refused before any solver runs
    def solver(*args, **kwargs):
        raise AssertionError(f"{command} ran a solver before it refused {refused}")

    for name in ("volterra.march_solve", "scalar.scalar_march",
                 "jump_mc.monte_carlo_average", "channels.genericity_check"):
        monkeypatch.setattr(f"reduktor.{name}", solver)
    cfg = {"nu": 1.0, "grid": {"t_max": 2.0, "steps": 200}, "R": 2000, "seed": 9, **keys}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert message in captured.err and repr(refused) in captured.err


INTEGER_FIELDS = {
    "seed": ("simulate", "compare"),
    "R": ("simulate", "compare"),
    "grid.steps": ("solve", "series", "simulate", "compare"),
    "N_max": ("series", "compare"),
    "n": ("solve", "genericity"),
    "n2": ("solve", "genericity"),
}
FRACTIONS = {"seed": 2.5, "R": 500.7, "grid.steps": 200.5, "N_max": 16.5, "n": 2.5,
             "n2": 1.5}


def with_field(field, value):
    if field == "grid.steps":
        return {"grid": {"t_max": 2.0, "steps": value}}
    return {field: value}


@pytest.mark.parametrize("field, command", [
    (field, command) for field, commands in INTEGER_FIELDS.items() for command in commands])
@pytest.mark.parametrize("kind", ["fraction", "string", "bool"])
def test_non_integral_integer_field_is_config_error(tmp_path, capsys, field, command, kind):
    # a fraction is not truncated, and neither "16" nor true is read as a number
    value = {"fraction": FRACTIONS[field], "string": "16", "bool": True}[kind]
    cfg = write_config(tmp_path / "cfg.json", **with_field(field, value))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: {field} must be an integer, got {value!r}" in captured.err


@pytest.mark.parametrize("field, command, whole", [
    ("seed", "simulate", 9), ("R", "simulate", 2000), ("grid.steps", "series", 200),
    ("N_max", "series", 16), ("n", "solve", 2)])
def test_integral_float_reads_as_its_integer(tmp_path, field, command, whole):
    texts = []
    for value in (whole, float(whole)):
        cfg = write_config(tmp_path / "cfg.json", **with_field(field, value))
        out = tmp_path / f"{value!r}.csv"
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


NOT_NUMBERS = {  # command, the config's source, the key path set to a non-number, its value
    "nu-true": ("solve", {}, "nu", True),
    "nu-false": ("solve", {}, "nu", False),
    "nu-string": ("solve", {}, "nu", "1.0"),
    "t_max-true": ("series", {}, "grid.t_max", True),
    "t_max-string": ("series", {}, "grid.t_max", "3.0"),
    "constant_M-strings": ("solve", {"constant_M": [["0.5", "0.5"], ["0.5", "0.5"]]},
                           "constant_M[0][0]", "0.5"),
    "constant_M-booleans": ("simulate", {"constant_M": [[True, False], [False, True]]},
                            "constant_M[0][0]", True),
    "value-true": ("scalar", {"scalar": {"variant": "constant", "value": True}},
                   "scalar.value", True),
    "tau-string": ("scalar", {"scalar": {"variant": "piecewise", "tau": "0.5"}},
                   "scalar.tau", "0.5"),
    "pattern-strings": ("scalar", {"scalar": {"variant": "piecewise", "tau": 0.5,
                                              "pattern": ["1", "0"]}}, "scalar.pattern[0]", "1"),
    "times-strings": ("scalar", {"scalar": {"variant": "tabulated", "times": ["0", "2"],
                                            "values": [1.0, 0.5]}}, "scalar.times[0]", "0"),
    "values-strings": ("scalar", {"scalar": {"variant": "tabulated", "times": [0.0, 2.0],
                                             "values": ["1", "0.5"]}}, "scalar.values[0]", "1"),
}


@pytest.mark.parametrize("command, source, key, value", NOT_NUMBERS.values(),
                         ids=NOT_NUMBERS.keys())
def test_a_number_must_be_a_json_number(tmp_path, capsys, monkeypatch, command, source, key,
                                        value):
    # neither a boolean nor a numeric string is read as a number; refused by
    # key path before any solver runs
    def solver(*args, **kwargs):
        raise AssertionError(f"{command} ran a solver before it refused {key}")

    for name in ("volterra.march_solve", "volterra.neumann_series_trajectory",
                 "scalar.scalar_march", "jump_mc.monte_carlo_average"):
        monkeypatch.setattr(f"reduktor.{name}", solver)
    cfg = {"nu": 1.0, "grid": {"t_max": 2.0, "steps": 200}, "R": 2000, "seed": 9,
           **(source or MODEL)}
    if key in ("nu", "grid.t_max"):
        *parents, name = key.split(".")
        (cfg[parents[0]] if parents else cfg)[name] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run([command, "--config", path, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key} must be a number, got {value!r}\n"


RATE_COMMANDS = ("solve", "series", "simulate", "compare", "asymptote", "scalar")


@pytest.mark.parametrize("key, command, config", [
    ("nu", "solve", "spin_flip.json"), ("grid.t_max", "solve", "spin_flip.json"),
    ("scalar.tau", "scalar", "scalar_alternating.json")])
def test_integer_too_large_for_a_float_is_config_error(tmp_path, key, command, config):
    # a Python int compares exactly, so 10^400 passes a finiteness test and
    # only float() fails on it; the process must report it, not raise
    cfg = json.loads((CONFIGS / config).read_text())
    *parents, name = key.split(".")
    entry = cfg
    for parent in parents:
        entry = entry[parent]
    entry[name] = 10 ** 400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-m", "reduktor.cli", command, "--config", str(path), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stderr.startswith("config error: ") and "Traceback" not in done.stderr
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("field, command", [
    *(("nu", command) for command in RATE_COMMANDS),
    *(("t_max", command) for command in RATE_COMMANDS + ("genericity",))])
def test_non_finite_rate_or_horizon_is_config_error(tmp_path, capsys, field, command, value):
    # json reads NaN and Infinity; both are refused before any solver runs
    scalar = json.loads((CONFIGS / "scalar_alternating.json").read_text())["scalar"]
    grid = {"t_max": value if field == "t_max" else 2.0, "steps": 200}
    cfg = write_config(tmp_path / "cfg.json", scalar=scalar, grid=grid,
                       nu=value if field == "nu" else 1.0)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and field in captured.err


class TestAsymptoteAndGenericity:
    def test_asymptote_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"t_max": 40.0, "steps": 2000})
        out = tmp_path / "rep.csv"
        assert run(["asymptote", "--config", cfg, "--out", out]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "converged"
        assert verdict["final_distance"] < 1e-3
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,c_value,distance"

    def test_asymptote_quiet(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "rep.csv"
        assert run(["asymptote", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("t,c_value,distance")

    def test_genericity_spin_flip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json",
                           grid={"t_max": 1.5, "steps": 300})
        assert run(["genericity", "--config", cfg]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["generic"] is True
        assert abs(verdict["witness_t"] - np.pi / 4.0) < 0.01

    def test_genericity_eigenbasis_model(self, tmp_path, capsys):
        diag = np.zeros((1, 1, 2, 2), dtype=complex)
        diag[0, 0] = np.diag([0.0, 1.0])
        cfg = write_config(tmp_path / "cfg.json", B=complex_to_pairs(diag))
        assert run(["genericity", "--config", cfg]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["generic"] is False


class TestScalarCommand:
    def test_piecewise_cross_check(self, tmp_path, capsys):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "piecewise", "tau": 0.5, "pattern": [1, 0]},
            "nu": 1.0,
            "grid": {"t_max": 5.0, "steps": 1000},
        }))
        out = tmp_path / "beta.csv"
        assert run(["scalar", "--config", cfg, "--out", out]) == 0
        assert "method of steps" in capsys.readouterr().out
        text = out.read_text()
        assert text.startswith("t,beta")
        assert "# jumps" in text

    def test_trig_cross_check(self, tmp_path, capsys):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "trig", "mean": 0.5, "amplitude": 0.5},
            "nu": 1.0,
            "grid": {"t_max": 3.0, "steps": 600},
        }))
        assert run(["scalar", "--config", cfg, "--out", tmp_path / "b.csv"]) == 0
        assert "ode route" in capsys.readouterr().out

    def test_a_typed_period_writes_the_grid_periods_bytes(self, tmp_path):
        # every jump of 0.3333333333 lies 3e-10 or less before its node at
        # h = 1/3; both limits are read at the jump time, so the jump rows
        # and every beta are those of tau = 1/3
        outs = []
        for tau in (0.3333333333, 1.0 / 3.0):
            cfg = tmp_path / "scalar.json"
            cfg.write_text(json.dumps({
                "scalar": {"variant": "piecewise", "tau": tau, "pattern": [1, 0]},
                "nu": 1.0,
                "grid": {"t_max": 10.0, "steps": 30},
            }))
            outs.append(tmp_path / f"beta{len(outs)}.csv")
            assert run(["scalar", "--config", cfg, "--out", outs[-1], "--quiet"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("tau", [0.3333333333, 0.3333333334])
    def test_a_typed_period_keeps_the_method_of_steps_check(self, tmp_path, capsys, tau):
        # 30 tau misses t_max = 10 by 3e-9 or 2e-9, within the grid's
        # tolerance, so the march puts t_max on the 30th jump and the summary
        # checks it against the method of steps, as it does at tau = 1/3
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "piecewise", "tau": tau, "pattern": [1, 0]},
            "nu": 1.0,
            "grid": {"t_max": 10.0, "steps": 3000},
        }))
        assert run(["scalar", "--config", cfg, "--out", tmp_path / "b.csv"]) == 0
        note = capsys.readouterr().out.split("max |march - method of steps| = ")[1]
        assert float(note) < 1e-5

    def test_trig_cross_check_at_any_rate(self, tmp_path, capsys):
        # the ODE route covers every cosine input at every rate
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "trig", "mean": 0.6, "amplitude": -0.3},
            "nu": 2.0,
            "grid": {"t_max": 3.0, "steps": 600},
        }))
        assert run(["scalar", "--config", cfg, "--out", tmp_path / "b.csv"]) == 0
        note = capsys.readouterr().out.split("max |march - ode route| = ")[1]
        assert float(note) < 1e-5

    def test_unknown_variant(self, tmp_path):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "sawtooth"},
            "grid": {"t_max": 1.0, "steps": 100},
        }))
        assert run(["scalar", "--config", cfg]) == 1

    BAD_ENTRIES = {
        "constant-no-value": {"variant": "constant"},
        "constant-string": {"variant": "constant", "value": "0.5"},
        "constant-null": {"variant": "constant", "value": None},
        "piecewise-no-tau": {"variant": "piecewise", "pattern": [1, 0]},
        "piecewise-string": {"variant": "piecewise", "tau": "0.5"},
        "piecewise-null": {"variant": "piecewise", "tau": None},
        "piecewise-string-pattern": {"variant": "piecewise", "tau": 0.5, "pattern": "10"},
        "trig-string": {"variant": "trig", "mean": "0.5"},
        "trig-null": {"variant": "trig", "amplitude": None},
        "tabulated-no-values": {"variant": "tabulated", "times": [0.0, 2.0]},
        "null-variant": {"variant": None},
        "list-variant": {"variant": [1]},
        "no-variant": {"value": 0.5},
    }

    @pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
    def test_a_bad_entry_is_a_config_error(self, tmp_path, capsys, entry):
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({"scalar": entry, "nu": 1.0,
                                   "grid": {"t_max": 1.0, "steps": 100}}))
        assert run(["scalar", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and not captured.out

    def test_long_horizon_unit_input_is_exactly_one(self, tmp_path):
        # nu T = 800: the tilted march does not overflow
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "constant", "value": 1.0},
            "nu": 1.0,
            "grid": {"t_max": 800.0, "steps": 1600},
        }))
        out = tmp_path / "beta.csv"
        assert run(["scalar", "--config", cfg, "--out", out, "--quiet"]) == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        assert body.shape == (1601, 2)
        np.testing.assert_array_equal(body[:, 1], np.ones(1601))

    def test_nan_input_is_config_error(self, tmp_path):
        # rejected like any other value outside [0, 1]
        cfg = tmp_path / "scalar.json"
        cfg.write_text(json.dumps({
            "scalar": {"variant": "tabulated", "times": [0.0, 1.0, 2.0],
                       "values": [1.0, float("nan"), 0.5]},
            "nu": 1.0,
            "grid": {"t_max": 2.0, "steps": 200},
        }))
        assert run(["scalar", "--config", cfg]) == 1

    def test_non_finite_beta_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # a march that returns NaN must fail before anything is written
        import reduktor.scalar

        def nan_march(M, left, h, b):
            return np.full(M.shape, np.nan), {}

        monkeypatch.setattr(reduktor.scalar, "_march", nan_march)
        out = tmp_path / "beta.csv"
        assert run(["scalar", "--config", CONFIGS / "scalar_cosine.json", "--out", out]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "numerical failure" in err and "nan" in err


SHIPPED_RUNS = [  # command/config pairs on configs/ that exit 0
    ("solve", "constant_matrix.json"), ("solve", "random_3level.json"),
    ("solve", "spin_flip.json"), ("scalar", "scalar_alternating.json"),
    ("scalar", "scalar_cosine.json"), ("series", "spin_flip.json"),
    ("simulate", "spin_flip.json"), ("compare", "spin_flip.json"),
    ("asymptote", "spin_flip.json"), ("genericity", "spin_flip.json"),
]


SHIPPED_EXIT_0 = {  # every command/config pair on configs/ that exits 0; the rest exit 1
    *((command, config) for command in ("solve", "series", "simulate", "compare", "asymptote")
      for config in ("constant_matrix.json", "random_3level.json", "spin_flip.json")),
    ("genericity", "random_3level.json"), ("genericity", "spin_flip.json"),
    ("scalar", "scalar_alternating.json"), ("scalar", "scalar_cosine.json"),
}


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.json")))
@pytest.mark.parametrize("command", ["solve", "series", "simulate", "compare", "asymptote",
                                     "genericity", "scalar"])
def test_shipped_exit_codes(tmp_path, capsys, command, config):
    # an exit-0 pair writes its output; a pair that exits 1 writes nothing
    out = tmp_path / "out"
    code = run([command, "--config", CONFIGS / config, "--out", out, "--quiet"])
    assert code == (0 if (command, config) in SHIPPED_EXIT_0 else 1)
    assert out.exists() == (code == 0)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command,config", SHIPPED_RUNS)
def test_quiet_does_not_change_output(tmp_path, command, config):
    # --quiet skips the work behind the summary line (in solve and scalar),
    # and nothing else; the other commands only skip a print
    results = []
    for flags in ([], ["--quiet"]):
        out = tmp_path / f"out{len(flags)}"
        code = run([command, "--config", CONFIGS / config, "--out", out] + flags)
        results.append((code, out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]


@pytest.mark.parametrize("command,config", SHIPPED_RUNS)
def test_stdout_without_out_holds_only_the_output(tmp_path, capsys, command, config):
    # the summary line goes to stdout only next to an --out file, so a pipe
    # reads exactly the bytes --out would hold; and main never touches gc
    policy = gc.isenabled(), gc.get_freeze_count()
    out = tmp_path / "out"
    assert run([command, "--config", CONFIGS / config, "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    assert run([command, "--config", CONFIGS / config]) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == out.read_bytes()
    assert (gc.isenabled(), gc.get_freeze_count()) == policy
    if command in ("solve", "series", "scalar"):  # scalar's jump rows are '#' comments
        np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, comments="#")


def test_scalar_command_loads_only_its_modules(tmp_path):
    # the quiet scalar command needs neither bath models, Monte Carlo nor
    # the asymptotic reports
    code = ("import sys; from reduktor.cli import main; "
            f"assert main(['scalar', '--config', {str(CONFIGS / 'scalar_alternating.json')!r}, "
            f"'--out', {str(tmp_path / 'beta.csv')!r}, '--quiet']) == 0; "
            "loaded = {'reduktor.channels', 'reduktor.jump_mc', 'reduktor.asymptotics'} "
            "& set(sys.modules); assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_imports_without_scipy():
    # scipy is a test-only dependency; the library must not load it.  Nor
    # may the module load numpy, which cli.run imports with the collector off
    code = ("import reduktor.cli, sys; "
            "assert not any(m.split('.')[0] in ('scipy', 'numpy') for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_run_turns_the_collector_off_and_freezes_the_heap(tmp_path):
    # the process entry point of python -m reduktor.cli and the console script
    code = ("import gc; from reduktor.cli import run; "
            f"assert run(['genericity', '--config', {str(CONFIGS / 'spin_flip.json')!r}, "
            f"'--out', {str(tmp_path / 'out.json')!r}, '--quiet']) == 0; "
            "assert not gc.isenabled() and gc.get_freeze_count() > 0")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("command, key, size", [("simulate", "R", 1000),
                                                ("solve", "steps", 300)])
def test_a_command_makes_no_more_cyclic_garbage_for_more_work(tmp_path, command, key, size):
    # cli.run keeps the collector off through a command, so a cycle made per
    # history or per node would grow the process's memory unseen
    cfg = json.loads((CONFIGS / "random_3level.json").read_text())
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    unreachable = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for work in (size, size, 4 * size):  # the first run pays for the imports
            (cfg["grid"] if key == "steps" else cfg)[key] = work
            path.write_text(json.dumps(cfg))
            gc.collect()
            assert run([command, "--config", path, "--out", out, "--quiet"]) == 0
            unreachable.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable[2] <= unreachable[1], unreachable


def outputs_at_blas_threads(tmp_path, command, config=CONFIGS / "random_3level.json"):
    """Output file, stdout and exit code of one command on a config (by
    default random_3level.json) at OPENBLAS_NUM_THREADS=1 and 2."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{command}-{threads}.txt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "reduktor.cli", command,
             "--config", str(config), "--out", str(out)],
            env=env, capture_output=True)
        outs.append((out.read_bytes(), done.stdout, done.returncode))
    return outs


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the Monte Carlo sums run in a fixed order, so the BLAS thread count
    # must not reach the output
    outs = outputs_at_blas_threads(tmp_path, "simulate")
    assert outs[0] == outs[1]
    assert outs[0][2] == 0


@pytest.mark.parametrize("command, config", [
    pytest.param(command, config, id=command + suffix)
    for config, suffix in (("random_3level.json", ""), ("spin_flip.json", "-spin_flip"))
    for command in ("solve", "compare")] + [
    pytest.param("series", "constant_matrix.json", id="series-constant_matrix")])
def test_solver_bytes_do_not_depend_on_blas_threads(tmp_path, command, config):
    # the march and series BLAS products must not depend on the thread count
    outs = outputs_at_blas_threads(tmp_path, command, CONFIGS / config)
    assert outs[0] == outs[1]
    assert outs[0][2] == 0


def test_long_two_level_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    # K = 12000 > 10^4, past which OpenBLAS splits a dot product over threads
    cfg = json.loads((CONFIGS / "spin_flip.json").read_text())
    cfg["grid"] = {"t_max": 60.0, "steps": 12000}
    config = tmp_path / "spin_flip_long.json"
    config.write_text(json.dumps(cfg))
    outs = outputs_at_blas_threads(tmp_path, "solve", config)
    assert outs[0] == outs[1]
    assert outs[0][2] == 0
