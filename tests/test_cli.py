"""End-to-end checks of the command line, run in process via main(argv)."""
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringorbits import cli, integrate, orbits
from ringorbits.cli import EXIT_CONFIG, EXIT_NOT_FOUND, EXIT_NUMERIC, EXIT_OK, main
from ringorbits.continuation import StopRules, branch_summary, branch_to_json, continue_branch
from ringorbits.model import write_json
from ringorbits.shoot import SeedPoint, newton_correct

P_FLAGS = ["--n", "3", "--m", "3", "--M", "7", "--r0", "11"]
Q_FLAGS = ["--n", "3", "--m", "92", "--M", "242", "--r0", "11"]


@pytest.fixture(scope="module")
def p_branch_file(p_branch, tmp_path_factory):
    path = tmp_path_factory.mktemp("branchdir") / "pbranch.json"
    branch_to_json(p_branch, path)
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLambda:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, ["lambda", "--n", "2"])
        assert code == EXIT_OK
        assert out.strip() == "lambda_2 = 0.25"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, ["lambda", "--n", "3", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["n"] == 3
        assert abs(payload["lambda"] - 3.0 ** -0.5) < 1e-12

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, ["lambda", "--n", "1"])
        assert code == EXIT_CONFIG
        assert "error" in err
        # above model.N_MAX: refused before the O(n) sum
        code, _, err = run(capsys, ["lambda", "--n", "1000001"])
        assert code == EXIT_CONFIG
        assert "n must be at most N_MAX" in err


class TestBifurcate:
    def test_light_system_summary(self, capsys):
        code, out, _ = run(capsys, ["bifurcate", *P_FLAGS])
        assert code == EXIT_OK
        assert "a0            0.890967" in out
        assert "T*            28.6536" in out
        assert "theta(T*)     2.32086" in out
        assert "nondegenerate True  margin 1.4633  (doubly symmetric 1.83395)" in out
        assert "xi''(0)" in out

    def test_heavy_system_summary(self, capsys):
        code, out, _ = run(capsys, ["bifurcate", *Q_FLAGS])
        assert code == EXIT_OK
        assert "a0            5.17965" in out
        assert "T*            5.03586" in out
        assert "11*sqrt(11/518)*pi" in out

    def test_json_out(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["bifurcate", *P_FLAGS, "--out", str(tmp_path), "--json-out", "rep.json"],
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert abs(payload["a0"] - 0.8909673398548792) < 1e-12
        assert abs(payload["T_star"] - 28.653581209259357) < 1e-9
        assert payload["nondegenerate"] is True
        assert payload["margin_double"] == abs(2.0 * math.sin(0.5 * math.pi * payload["s"]))
        assert payload["params"]["n"] == 3
        assert "kind" not in payload

    def test_huge_mass_sum_prints_as_a_float_in_the_exact_time(self, capsys):
        code, out, _ = run(capsys, ["bifurcate", "--n", "3", "--m", "1e200", "--M", "7", "--r0", "11"])
        assert code == EXIT_OK
        (line,) = [row for row in out.splitlines() if row.startswith("T*")]
        assert "(= 11*sqrt(11/3e+200)*pi)" in line
        assert not re.search(r"\d{18}", line)

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "sys.json"
        cfgfile.write_text(json.dumps({"n": 3, "m": 3, "M": 7, "r0": 11}))
        code, out, _ = run(
            capsys,
            ["bifurcate", "--config", str(cfgfile), "--m", "92", "--M", "242"],
        )
        assert code == EXIT_OK
        assert "a0            5.17965" in out  # overrides turned it into the heavy system

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, ["bifurcate", "--config", "/nonexistent.json"])
        assert code == EXIT_CONFIG
        assert "not found" in err

    def test_config_file_that_is_not_json(self, capsys, tmp_path):
        cfgfile = tmp_path / "sys.json"
        cfgfile.write_text("n = 3")
        code, _, err = run(capsys, ["bifurcate", "--config", str(cfgfile)])
        assert code == EXIT_CONFIG
        assert "cannot read config file" in err

    def test_invalid_mass(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["bifurcate", "--n", "3", "--m", "-1", "--M", "7", "--r0", "11",
             "--out", str(tmp_path), "--json-out", "rep.json"],
        )
        assert code == EXIT_CONFIG
        assert not (tmp_path / "rep.json").exists()


class TestShoot:
    def test_corrects_the_family_seed(self, capsys, tmp_path, params_p):
        argv = [
            "shoot", *P_FLAGS,
            "--a", repr(params_p.a0), "--b", "0.05", "--T", repr(params_p.T0),
            "--tol", "1e-12", "--out", str(tmp_path), "--json-out", "p1.json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "corrected" in out and "residual" in out
        seed = json.loads((tmp_path / "p1.json").read_text())
        assert abs(seed["a"] - 0.8892815) < 1e-6
        assert abs(seed["T"] - 28.708) < 1e-3
        assert seed["b"] == 0.05
        assert seed["residual"] < 1e-12

    def test_runs_are_byte_identical(self, capsys, tmp_path, params_p):
        argv = [
            "shoot", *P_FLAGS,
            "--a", repr(params_p.a0), "--b", "0.05", "--T", repr(params_p.T0),
            "--out", str(tmp_path),
        ]
        code, _, _ = run(capsys, argv + ["--json-out", "one.json"])
        assert code == EXIT_OK
        code, _, _ = run(capsys, argv + ["--json-out", "two.json"])
        assert code == EXIT_OK
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_stdout_seed_when_no_file_requested(self, capsys, params_q):
        argv = [
            "shoot", *Q_FLAGS,
            "--a", "1.84153", "--b", "3.79392", "--T", "7.31715",
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        payload = json.loads(out[out.index("{"):])
        assert abs(payload["a"] - 1.84153) < 1e-3

    def test_stdout_matches_the_seed_file(self, capsys, tmp_path):
        argv = ["shoot", *P_FLAGS, "--a", "0.8892815", "--b", "0.05", "--T", "28.708"]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        code, _, _ = run(capsys, argv + ["--out", str(tmp_path), "--json-out", "seed.json"])
        assert code == EXIT_OK
        written = (tmp_path / "seed.json").read_text()
        assert out.endswith(written)
        assert written == json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n"

    def test_invalid_seed(self, capsys):
        code, _, err = run(
            capsys,
            ["shoot", *P_FLAGS, "--a", "-0.9", "--b", "0.05", "--T", "28.7"],
        )
        assert code == EXIT_CONFIG

    def test_guess_heading_for_the_trivial_root_fails(self, capsys):
        code, out, err = run(capsys, ["shoot", *P_FLAGS, "--a", "0.95", "--b", "0.05", "--T", "2"])
        assert code == EXIT_NUMERIC
        assert "corrected" not in out
        assert err.startswith("numerical failure: line search stalled")

    def test_huge_axial_velocity_is_a_numerical_failure(self, capsys):
        # the norm of the scaled initial derivative overflows in the flow's
        # first-step heuristic
        code, out, err = run(capsys, ["shoot", *P_FLAGS, "--a", "0.9", "--b", "1e200", "--T", "20"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "setting",
        [["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol=-1"], ["--max-flows", "0"]],
    )
    def test_bad_corrector_setting_exits_before_any_flow(self, capsys, monkeypatch, setting):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the corrector settings were checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        argv = ["shoot", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "28.7", *setting]
        code, out, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", *P_FLAGS, "--a", "0.9", "--b", "nan", "--T", "30"],
        ["verify", *P_FLAGS, "--a", "inf", "--b", "0.05", "--T", "30"],
        ["shoot", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "inf"],
        ["shoot", *P_FLAGS, "--a", "0.9", "--b=-inf", "--T", "30"],
        ["orbit", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "inf"],
        ["trace", *P_FLAGS, "--seed-b", "nan"],
    ],
)
def test_non_finite_seed_exits_before_any_flow(capsys, monkeypatch, tmp_path, argv):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran before the seed was checked")

    monkeypatch.setattr(integrate, "flow", no_flow)
    monkeypatch.setattr(orbits, "flow", no_flow)
    code, _, err = run(capsys, [*argv, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "must be finite" in err
    assert not any(tmp_path.iterdir())


P_SYSTEM = {"n": 3, "m": 3.0, "M": 7.0, "r0": 11.0}


@pytest.mark.parametrize(
    "command, content",
    [
        (["bifurcate", "--config"], {**P_SYSTEM, "abs_tol": [1]}),
        (["bifurcate", "--config"], {**P_SYSTEM, "rel_tol": None}),
        (["bifurcate", "--config"], {**P_SYSTEM, "n": 3.7}),
        (["trace", "--seed-b", "0.05", "--config"], {**P_SYSTEM, "n": 3.7}),
        # the flag's spelling, not the file key rel_tol
        (["bifurcate", "--config"], {**P_SYSTEM, "rel-tol": 1e-8}),
        (["trace", *P_FLAGS, "--seed-file"], {"a": 0.89, "b": 0.05, "T": 28.6, "residual": None}),
        (["trace", *P_FLAGS, "--seed-file"], {"a": 0.89, "b": 0.05, "T": 28.6, "kind": 5}),
        (["trace", *P_FLAGS, "--seed-file"], [1]),
        (["resonance", *P_FLAGS, "--n1", "3", "--n2", "4", "--branch"], [1, 2]),
        # integers too large for a float
        (["bifurcate", "--config"], {**P_SYSTEM, "n": 10**400}),
        (["bifurcate", "--config"], {**P_SYSTEM, "m": 10**400}),
        (["bifurcate", "--config"], {**P_SYSTEM, "rel_tol": 10**400}),
        (["trace", *P_FLAGS, "--seed-file"], {"a": 10**400, "b": 0.05, "T": 28.6}),
        (
            ["resonance", *P_FLAGS, "--n1", "3", "--n2", "4", "--branch"],
            {"kind": "odd", "params": {**P_SYSTEM, "m": 10**400}, "points": []},
        ),
        (["bifurcate", "--config"], [3, 3, 7, 11]),  # JSON, but not an object
        # the odd/even kind is no longer read, in a seed or a branch file
        (["trace", *P_FLAGS, "--seed-file"], {"a": 0.89, "b": 0.05, "T": 14.3, "kind": "odd_even"}),
        (
            ["resonance", *P_FLAGS, "--n1", "3", "--n2", "4", "--branch"],
            {"kind": "odd_even", "params": P_SYSTEM, "points": []},
        ),
    ],
)
def test_malformed_file_exits_before_any_flow(capsys, monkeypatch, tmp_path, command, content):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran on a malformed input file")

    monkeypatch.setattr(integrate, "flow", no_flow)
    monkeypatch.setattr(orbits, "flow", no_flow)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "out"
    code, _, err = run(capsys, [*command, str(path), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    if isinstance(content, dict) and content.get("kind") == "odd_even":
        assert "an 'odd_even' point (a, b, T) is the point (a, b, 2T) of kind 'double'" in err


@pytest.mark.parametrize(
    "argv",
    [
        # T at or below the floor T_LOWER*T0, where F/b ~ T solves the pair
        ["shoot", *P_FLAGS, "--a", "0.95", "--b", "0.05", "--T", "1e-12"],
        ["trace", *P_FLAGS, "--seed-file", "{seed_file}"],
        ["verify", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "1e-300"],
        ["orbit", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "1e-300"],
        # finite system values for which a0, T0 or kappa**2 leave the float range
        ["bifurcate", *P_FLAGS, "--r0", "1e200"],
        ["bifurcate", *P_FLAGS, "--r0", "1e-200"],
        ["bifurcate", *P_FLAGS, "--M", "1e308"],
        ["bifurcate", *P_FLAGS, "--m", "1e-310"],
        ["bifurcate", *P_FLAGS, "--m", "1e-170"],
        ["trace", *P_FLAGS, "--r0", "1e120", "--seed-b", "0.1"],
        ["shoot", *P_FLAGS, "--m", "1e-170", "--a", "0.9", "--b", "0.05", "--T", "28"],
        ["verify", *P_FLAGS, "--r0", "1e-200", "--a", "0.9", "--b", "0.05", "--T", "28"],
    ],
    ids=lambda argv: " ".join([argv[0], *argv[1 + len(P_FLAGS):]]),
)
def test_out_of_domain_input_exits_before_any_flow(capsys, monkeypatch, tmp_path, argv):
    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran on an input outside the domain")

    monkeypatch.setattr(integrate, "flow", no_flow)
    monkeypatch.setattr(orbits, "flow", no_flow)
    seed_file = tmp_path / "seed.json"
    seed_file.write_text(json.dumps({"a": 0.95, "b": 0.05, "T": 1e-12}))
    out = tmp_path / "out"
    argv = [arg.format(seed_file=seed_file) for arg in argv]
    code, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


LOG_UNIFORM = st.floats(-320.0, 308.0).map(lambda u: 10.0**u)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), m=LOG_UNIFORM, M=st.just(0.0) | LOG_UNIFORM, r0=LOG_UNIFORM)
@example(n=3, m=3.0, M=7.0, r0=1e200)
@example(n=3, m=3.0, M=7.0, r0=1e-200)
@example(n=3, m=3.0, M=1e308, r0=11.0)
@example(n=3, m=1e200, M=7.0, r0=11.0)
@example(n=3, m=1e-310, M=7.0, r0=11.0)
@example(n=3, m=1e-170, M=7.0, r0=11.0)
def test_bifurcate_exits_cleanly_on_any_finite_system(n, m, M, r0):
    argv = ["bifurcate", "--n", str(n), "--m", repr(m), "--M", repr(M), "--r0", repr(r0)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert err.getvalue().count("\n") == (code == EXIT_CONFIG)


class TestTrace:
    def test_seed_file_toward_the_circular_family(self, capsys, tmp_path, p1_corrected):
        seed_file = tmp_path / "seed.json"
        with open(seed_file, "w", encoding="utf-8") as fh:
            write_json(p1_corrected.to_dict(), fh)
        argv = [
            "trace", *P_FLAGS,
            "--seed-file", str(seed_file), "--direction", "+",
            "--max-points", "60", "--out", str(tmp_path), "--prefix", "down",
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "endpoint   trivial-limit" in out
        assert " b=0 " in out
        assert (tmp_path / "down.csv").exists()
        payload = json.loads((tmp_path / "down.json").read_text())
        assert payload["termination"] == "trivial-limit"
        assert "endpoint_label" not in payload
        assert payload["endpoint_detail"]["delta_a"] < 1e-6

    def test_auto_seed_budget(self, capsys, tmp_path):
        argv = [
            "trace", *P_FLAGS,
            "--seed-b", "0.05", "--direction", "-",
            "--max-points", "4", "--out", str(tmp_path), "--prefix", "stub",
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "points     4" in out
        assert "endpoint   budget" in out
        payload = json.loads((tmp_path / "stub.json").read_text())
        first = payload["points"][0]
        assert abs(first["a"] - 0.8892815) < 1e-3
        assert abs(first["T"] - 28.708) < 1e-2

    def test_seed_flags_are_exclusive(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["trace", *P_FLAGS, "--seed-b", "0.05", "--seed-file", "x.json"],
        )
        assert code == EXIT_CONFIG
        assert "exactly one" in err
        code, _, err = run(capsys, ["trace", *P_FLAGS])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag",
        [["--ds-max", "0"], ["--ds-max=-0.1"], ["--ds-min", "nan"], ["--ds-min", "1", "--ds-max", "0.1"]],
    )
    def test_bad_step_length_exits_before_any_flow(self, capsys, tmp_path, monkeypatch, flag):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the step flags were checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        argv = [
            "trace", *P_FLAGS, "--seed-b", "0.05", *flag,
            "--max-points", "6", "--out", str(tmp_path), "--prefix", "bad",
        ]
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        ordered = "--ds-min" in flag and "--ds-max" in flag
        assert ("ds_min 1.0 exceeds ds_max 0.1" if ordered else "must be finite and positive") in err
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize(
        "flag,message",
        [
            (["--max-points", "0"], "max_points must be an integer >= 1, got 0"),
            (["--max-points=-3"], "max_points must be an integer >= 1, got -3"),
        ],
        ids=["zero", "negative"],
    )
    def test_bad_stop_rule_exits_before_any_flow(self, capsys, tmp_path, monkeypatch, flag, message):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the stop flags were checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        argv = ["trace", *P_FLAGS, "--seed-b", "0.05", *flag, "--out", str(tmp_path), "--prefix", "bad"]
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert message in err
        assert not (tmp_path / "bad.json").exists()

    def test_there_is_no_b_tol_flag(self, capsys, tmp_path, monkeypatch):
        # a branch ends at b = 0 only by crossing it or landing on it
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the flags were parsed")

        monkeypatch.setattr(integrate, "flow", no_flow)
        with pytest.raises(SystemExit) as exc:
            main(["trace", *P_FLAGS, "--seed-b", "0.05", "--b-tol", "1e-3", "--out", str(tmp_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --b-tol" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestResonance:
    def test_three_quarter_pi_end_to_end(self, capsys, tmp_path, p_branch_file):
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(p_branch_file), "--n1", "3", "--n2", "4",
            "--samples", "64", "--out", str(tmp_path),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "closure    strict 4 periods, relabeling 4 periods" in out
        written = sorted(p.name for p in tmp_path.iterdir())
        assert len(written) == 3
        assert any(n.startswith("odd_3pi4_") and n.endswith(".csv") for n in written)
        assert any(n.endswith(".seed.json") for n in written)
        seed_name = next(n for n in written if n.endswith(".seed.json"))
        seed = json.loads((tmp_path / seed_name).read_text())
        assert abs(seed["theta"] - 3.0 * math.pi / 4.0) <= 1e-8
        assert abs(seed["a"] - 0.866953) < 1e-2

    def test_reruns_are_byte_identical(self, capsys, tmp_path, p_branch_file):
        outs = []
        for sub in ("first", "second"):
            d = tmp_path / sub
            argv = [
                "resonance", *P_FLAGS,
                "--branch", str(p_branch_file), "--n1", "5", "--n2", "6",
                "--samples", "16", "--out", str(d),
            ]
            code, _, _ = run(capsys, argv)
            assert code == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in d.iterdir()})
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name]

    def test_angle_not_on_branch(self, capsys, tmp_path, p_branch_file):
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(p_branch_file), "--n1", "7", "--n2", "2",
            "--out", str(tmp_path),
        ]
        code, _, err = run(capsys, argv)
        assert code == EXIT_NOT_FOUND
        assert "not found" in err

    def test_non_coprime_target(self, capsys, tmp_path, p_branch_file):
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(p_branch_file), "--n1", "2", "--n2", "4",
            "--out", str(tmp_path),
        ]
        code, _, _ = run(capsys, argv)
        assert code == EXIT_CONFIG

    def test_system_differs_from_the_branch_file(self, capsys, tmp_path, p_branch_file):
        flags = ["--n", "3", "--m", "4", "--M", "7", "--r0", "11"]
        argv = [
            "resonance", *flags,
            "--branch", str(p_branch_file), "--n1", "3", "--n2", "4",
            "--out", str(tmp_path),
        ]
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert "differs from the branch file" in err
        assert list(tmp_path.iterdir()) == []

    def test_too_few_samples_exit_before_any_flow(self, capsys, tmp_path, monkeypatch, p_branch_file):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before the sample count was checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        monkeypatch.setattr(orbits, "flow", no_flow)
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(p_branch_file), "--n1", "3", "--n2", "4",
            "--samples", "1", "--out", str(tmp_path),
        ]
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert "--samples must be an integer >= 2, got 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_branch_file(self, capsys, tmp_path):
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(tmp_path / "missing.json"), "--n1", "1", "--n2", "1",
        ]
        code, _, _ = run(capsys, argv)
        assert code == EXIT_CONFIG


class TestOrbit:
    def test_export_with_diagnostics(self, capsys, tmp_path, q0_corrected):
        argv = [
            "orbit", *Q_FLAGS,
            "--a", repr(q0_corrected.a), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
            "--periods", "1", "--samples", "32",
            "--out", str(tmp_path), "--prefix", "orb",
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "energy_drift" in out
        assert (tmp_path / "orb.csv").exists()
        payload = json.loads((tmp_path / "orb.json").read_text())
        assert payload["diagnostics"]["energy_drift"] < 1e-9
        assert len(payload["times"]) == 33

    @pytest.mark.parametrize("command", ["orbit", "verify"])
    def test_orbit_out_of_float_range_exits_2_and_writes_nothing(self, capsys, tmp_path, command):
        argv = [command, *P_FLAGS, "--a", "0.9", "--b", "1e300", "--T", "28", "--out", str(tmp_path)]
        if command == "orbit":
            argv += ["--samples", "8"]
        code, out, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert "float range" in err
        assert "verdict" not in out
        assert list(tmp_path.iterdir()) == []


# Cheap runs of the commands that write files, with the flag naming the file.
WRITERS = {
    "bifurcate": (["bifurcate", *P_FLAGS], "--json-out", "rep.json"),
    "shoot": (["shoot", *P_FLAGS, "--a", "0.8892815", "--b", "0.05", "--T", "28.708"], "--json-out", "seed.json"),
    "trace": (["trace", *P_FLAGS, "--seed-b", "0.05", "--max-points", "2"], "--prefix", "br"),
    "orbit": (["orbit", *P_FLAGS, "--a", "0.9", "--b", "0.05", "--T", "28", "--samples", "8"], "--prefix", "orb"),
}


def no_flow(*args, **kwargs):
    raise AssertionError("a flow ran before the output path was checked")


@pytest.mark.parametrize("command", [*WRITERS, "resonance"])
def test_out_naming_a_file_exits_2(capsys, monkeypatch, tmp_path, p_branch_file, command):
    monkeypatch.setattr(integrate, "flow", no_flow)
    monkeypatch.setattr(orbits, "flow", no_flow)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    if command == "resonance":
        argv = ["resonance", *P_FLAGS, "--branch", str(p_branch_file), "--n1", "3", "--n2", "4", "--samples", "8"]
    else:
        args, flag, name = WRITERS[command]
        argv = [*args, flag, name]
    code, _, err = run(capsys, argv + ["--out", str(blocker)])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "afile" in err
    assert list(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command", list(WRITERS))
def test_output_in_a_missing_directory_exits_2(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setattr(integrate, "flow", no_flow)
    monkeypatch.setattr(orbits, "flow", no_flow)
    args, flag, name = WRITERS[command]
    code, _, err = run(capsys, [*args, flag, f"nodir/{name}", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and "nodir" in err
    assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_good_point_passes(self, capsys, q0_corrected):
        argv = [
            "verify", *Q_FLAGS,
            "--a", repr(q0_corrected.a), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert "verdict       pass" in out

    def test_perturbed_point_fails(self, capsys, q0_corrected):
        argv = [
            "verify", *Q_FLAGS,
            "--a", repr(q0_corrected.a + 0.1), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_NUMERIC
        assert "verdict       FAIL" in out
        assert "residual" in out

    # argparse refuses a string that is not a number, and no flag value is None
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "-inf"])
    def test_bad_residual_bound_exits_before_any_flow(self, capsys, monkeypatch, q0_corrected, tol):
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran before --res-tol was checked")

        monkeypatch.setattr(integrate, "flow", no_flow)
        monkeypatch.setattr(orbits, "flow", no_flow)
        argv = [
            "verify", *Q_FLAGS,
            "--a", repr(q0_corrected.a), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
            f"--res-tol={tol}",
        ]
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert "--res-tol must be finite and positive" in err

    def test_checked_pair_and_phase_share_one_flow(self, capsys, monkeypatch, q0_corrected):
        flows = []
        inner = cli.eval_at
        monkeypatch.setattr(cli, "eval_at", lambda *a, **k: flows.append(a) or inner(*a, **k))
        argv = [
            "verify", *Q_FLAGS,
            "--a", repr(q0_corrected.a), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert len(flows) == 1
        assert "theta(T)" in out

    def test_config_file_is_read_once(self, capsys, tmp_path, monkeypatch, q0_corrected):
        cfgfile = tmp_path / "sys.json"
        cfgfile.write_text(json.dumps({"n": 3, "m": 92, "M": 242, "r0": 11}))
        reads = []
        inner = cli._load_config_file
        monkeypatch.setattr(cli, "_load_config_file", lambda path: reads.append(path) or inner(path))
        argv = [
            "verify", "--config", str(cfgfile),
            "--a", repr(q0_corrected.a), "--b", repr(q0_corrected.b), "--T", repr(q0_corrected.T),
        ]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert reads == [str(cfgfile)]
        assert "theta(T)" in out


class TestDoublySymmetricMember:
    """The 3*pi/4 member of a branch file written by `trace`, which found
    the branch in the doubly symmetric form."""

    TRACE = ["--seed-b", "0.05", "--direction", "-", "--max-points", "6"]

    @pytest.fixture
    def seed(self, capsys, tmp_path):
        assert run(capsys, ["trace", *P_FLAGS, *self.TRACE, "--out", str(tmp_path)])[0] == EXIT_OK
        argv = [
            "resonance", *P_FLAGS,
            "--branch", str(tmp_path / "branch.json"), "--n1", "3", "--n2", "4",
            "--samples", "64", "--out", str(tmp_path / "member"),
        ]
        assert run(capsys, argv)[0] == EXIT_OK
        return json.loads(next((tmp_path / "member").glob("*.seed.json")).read_text())

    def test_resonance_gives_the_in_process_member(self, seed, params_p, cfg):
        # the same trace in process: the branch file kept each point's kind
        start = newton_correct(SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0), params_p, cfg)
        branch = continue_branch(start, -1, params_p, cfg, stop=StopRules(max_points=6))
        assert [bp.point.kind.value for bp in branch.points] == ["double"] * 6
        member = orbits.find_resonance(branch, orbits.ResonanceTarget(3, 4), cfg)
        assert seed == member.to_dict()
        assert seed["kind"] == "double"

    def test_outputs_hold_no_numpy_scalars(self, seed, tmp_path, params_p, cfg):
        # repr writes a NumPy scalar as np.float64(...), and json hides it;
        # the records are checked in process, the files as written
        files = [tmp_path / "branch.csv", tmp_path / "branch.json", *(tmp_path / "member").glob("*.seed.json")]
        assert len(files) == 3 and not any("np." in path.read_text() for path in files)
        start = newton_correct(SeedPoint(a=params_p.a0, b=0.05, T=params_p.T0), params_p, cfg)
        branch = continue_branch(start, -1, params_p, cfg, stop=StopRules(max_points=6))
        member = orbits.find_resonance(branch, orbits.ResonanceTarget(3, 4), cfg)
        records = [branch_summary(branch), *(bp.point.to_dict() for bp in branch.points), member.to_dict()]

        def scalars(value):
            if isinstance(value, dict):
                return [s for v in value.values() for s in scalars(v)]
            return [value] if isinstance(value, np.generic) else []

        assert [s for record in records for s in scalars(record)] == []

    def test_verify_checks_the_odd_pair(self, capsys, monkeypatch, seed, params_p, cfg):
        # F(T) and R_t(T); F_t(T) mirrors F_t(0) = b and is no residual
        point = SeedPoint.from_dict(seed)
        e = integrate.eval_at(point.a, point.b, point.T, params_p, cfg)
        assert abs(e.F) < 1e-9 and abs(e.Rt) < 1e-9 and abs(e.Ft) > 0.1
        argv = ["verify", *P_FLAGS, "--a", repr(point.a), "--b", repr(point.b), "--T", repr(point.T)]
        for patched in (False, True):
            if patched:  # no flag names the form: hand verify the point as the file holds it
                monkeypatch.setattr(cli, "_seed_from_args", lambda args: point)
            code, out, _ = run(capsys, argv)
            assert code == EXIT_OK
            assert f"residual_1     {abs(e.F):>12.6g}" in out

    def test_kind_flag_offers_only_the_families(self, capsys):
        # every point is of the odd family, so no subcommand takes --kind
        seed = ["--a", "0.9", "--b", "0.05", "--T", "28.7"]
        for argv in (["verify", *seed], ["shoot", *seed], ["orbit", *seed], ["bifurcate"],
                     ["trace", "--seed-b", "0.05"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv[:1], *P_FLAGS, *argv[1:], "--kind", "odd"])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --kind odd" in capsys.readouterr().err


class TestPlumbing:
    def test_out_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGORBITS_OUT", str(tmp_path / "envout"))
        code, _, _ = run(capsys, ["bifurcate", *P_FLAGS, "--json-out", "rep.json"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "rep.json").exists()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        # the child imports the package these tests import, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ringorbits.cli", "lambda", "--n", "2"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "lambda_2 = 0.25"
