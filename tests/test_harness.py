"""Sweep driver, threshold bracketing, config/CSV plumbing and the CLI."""
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracsim
import fracsim.harness as harness
from fracsim import (
    BracketingError,
    BracketResult,
    ClassifyThresholds,
    DataSpec,
    DomainError,
    GridSpec,
    NumericalError,
    SweepConfig,
    bracket_pstar,
    config_from_dict,
    rows_to_csv,
    run_sweep,
)
from fracsim.cli import main as cli_main
from fracsim.harness import SweepRow


def config_with(key_path: str, value) -> str:
    """A runnable sweep/bracket config with one key set, as JSON text; a
    path without a dot names a top-level key."""
    cfg = {
        "schema": 1, "p_values": [1.8, 3.0],
        "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
        "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
        "grid": {"points": 64, "half_width": 10.0},
        "time": {"t_end": 2.0, "steps": 24},
    }
    *section, key = key_path.split(".")
    (cfg.setdefault(section[0], {}) if section else cfg)[key] = value
    return json.dumps(cfg)


def small_config(p_values=(3.0,), **overrides) -> SweepConfig:
    base = dict(
        alpha=0.5,
        s=0.4,
        sigma=-0.25,
        dim=1,
        p_values=p_values,
        u0=DataSpec(kind="zero"),
        w=DataSpec(kind="gaussian", amplitude=0.05, width=1.0),
        grid=GridSpec(dim=1, points=64, half_width=10.0),
        t_end=2.0,
        steps=24,
        grading=2.0,
        thresholds=ClassifyThresholds(t_end=2.0),
        q_report=4.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestDataSpec:
    def test_kinds(self):
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        assert DataSpec(kind="zero").build(grid) is None
        g = DataSpec(kind="gaussian", amplitude=2.0, width=1.5).build(grid)
        assert g.values.max() == pytest.approx(2.0)
        ind = DataSpec(kind="indicator", amplitude=1.0, width=2.0).build(grid)
        assert set(np.unique(ind.values)) <= {0.0, 1.0}

    def test_validation(self):
        with pytest.raises(DomainError):
            DataSpec(kind="spline")
        with pytest.raises(DomainError):
            DataSpec(kind="gaussian", amplitude=float("nan"))
        with pytest.raises(DomainError):
            DataSpec(kind="gaussian", width=0.0)

    def test_amplitude_without_kind_rejected(self):
        # The default kind is "zero": an amplitude there would march no data.
        with pytest.raises(DomainError, match="name a kind"):
            DataSpec(amplitude=0.4, width=1.0)
        grid = GridSpec(dim=1, points=64, half_width=10.0)
        assert DataSpec(amplitude=0.0).build(grid) is None


class TestSweepConfig:
    def test_p_values_must_be_sorted_and_supercritical(self):
        with pytest.raises(DomainError):
            small_config(p_values=(3.0, 2.0))
        with pytest.raises(DomainError):
            small_config(p_values=(1.0, 2.0))

    def test_empty_p_values_rejected(self):
        # all(...) over no powers is true, so the power check alone would
        # accept a sweep with no rows.
        with pytest.raises(DomainError, match="p_values must name at least one power"):
            small_config(p_values=())

    def test_fractional_steps_rejected(self):
        with pytest.raises(DomainError, match="steps must be an integer >= 2, got 20.5"):
            small_config(steps=20.5)

    def test_grid_dim_must_match_model_dim(self):
        # Without the check every row came back "Failed", and bracket_pstar
        # reported the usage error as a BracketingError.
        with pytest.raises(DomainError, match="grid dim 2 differs from dim 1"):
            small_config(grid=GridSpec(dim=2, points=64, half_width=5.0))

    def test_round_trip_from_dict(self):
        cfg_dict = {
            "schema": 1,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "p_values": [2.0, 3.0],
            "u0": {"kind": "zero"},
            "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
            "grid": {"points": 64, "half_width": 10.0},
            "time": {"t_end": 2.0, "steps": 24, "grading": 2.0},
            "classify": {"t_end": 2.0},
            "q_report": 4.0,
        }
        cfg = config_from_dict(cfg_dict)
        assert cfg == small_config(p_values=(2.0, 3.0))

    def test_default_thresholds_classify_at_t_end(self):
        cfg = SweepConfig(
            alpha=0.5, s=0.4, sigma=-0.25, dim=1, p_values=(3.0,),
            u0=DataSpec(kind="zero"),
            w=DataSpec(kind="gaussian", amplitude=0.05, width=1.0),
            grid=GridSpec(dim=1, points=64, half_width=10.0),
            t_end=10.0, steps=20,
        )
        assert cfg.thresholds == ClassifyThresholds(t_end=10.0)
        (row,) = run_sweep(cfg)
        assert row.classification == "Global"
        with pytest.raises(DomainError, match="exceeds time.t_end"):
            small_config(t_end=10.0, steps=20,
                         thresholds=ClassifyThresholds(t_end=10.5))

    def test_reader_states_only_defaults_with_no_dataclass_home(self):
        model = {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1}
        minimal = config_from_dict({"schema": 1, "model": model, "p": 3.0})
        assert minimal == SweepConfig(
            alpha=0.5, s=0.4, sigma=-0.25, dim=1, p_values=(3.0,),
            u0=DataSpec(kind="zero"), w=DataSpec(kind="zero"),
            grid=GridSpec(dim=1, points=4096, half_width=50.0),
            t_end=50.0, steps=600,
        )
        cfg = config_from_dict({"schema": 1, "model": model, "p": 3.0,
                                "time": {"t_end": 2.0, "steps": 24},
                                "classify": {"u_max": 1e6}})
        assert cfg.thresholds == ClassifyThresholds(u_max=1e6, t_end=2.0)

    def test_unknown_schema_rejected(self):
        with pytest.raises(DomainError):
            config_from_dict({"schema": 2, "model": {}})

    def test_unknown_forcing_scheme_rejected(self):
        with pytest.raises(DomainError, match="forcing scheme"):
            small_config(forcing_scheme="bogus")

    @pytest.mark.parametrize("key_path, value, message", [
        ("model.alpha", "0.5", "config model.alpha: expected a number, got '0.5'"),
        ("time.steps", "20", "config time.steps: expected an integer, got '20'"),
        ("p_values", ["2", "3"], "config p_values: expected a number, got '2'"),
        ("q_report", "4", "config q_report: expected a number, got '4'"),
        ("w.kind", True, "config w.kind: expected a string, got True"),
        ("forcing_scheme", 1, "config forcing_scheme: expected a string, got 1"),
    ], ids=["alpha-string", "steps-string", "p-values-strings", "q-report-string",
            "kind-bool", "forcing-scheme-number"])
    def test_value_of_the_wrong_json_type_rejected(self, key_path, value, message):
        # A quoted number never runs as a number, and a string key never
        # takes the str() of another JSON type.
        with pytest.raises(DomainError) as err:
            config_from_dict(json.loads(config_with(key_path, value)))
        assert str(err.value) == message

    def test_tail_norm_exponent_must_be_a_string(self):
        cfg = json.loads(config_with("hypotheses.tail_norm_exponent", 1))
        with pytest.raises(DomainError) as err:
            harness.hypotheses_options(cfg, 4.0)
        assert str(err.value) == (
            "config hypotheses.tail_norm_exponent: expected a string, got 1")


class TestRunSweep:
    def test_duplicate_p_gives_identical_rows(self):
        rows = run_sweep(small_config(p_values=(3.0, 3.0)))
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_only_numerical_and_domain_errors_become_failed_rows(self, monkeypatch):
        def raise_(exc):
            def fake(*args, **kwargs):
                raise exc
            return fake

        monkeypatch.setattr(harness, "integrate_many",
                            raise_(NumericalError("stalled")))
        (row,) = run_sweep(small_config())
        assert row.classification == "Failed"
        assert row.note == "NumericalError: stalled"
        # every power of a failed march gets the row the serial path gives
        cfg = small_config(p_values=(2.0, 3.0),
                           w=DataSpec(kind="gaussian", amplitude=-0.05, width=1.0))
        rows = run_sweep(cfg)
        assert [r.p for r in rows] == [2.0, 3.0]
        assert {r.classification for r in rows} == {"Failed"}
        assert {r.note for r in rows} == {
            "forcing-mass-nonpositive; NumericalError: stalled"}
        monkeypatch.setattr(harness, "integrate_many", raise_(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            run_sweep(small_config())

    def test_sweep_marches_consecutive_groups(self, monkeypatch):
        marches = []
        monkeypatch.setattr(harness, "_classify",
                            fake_rows(lambda p: "Global", marches))
        p_values = (1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
        # a march_2d-sized 2D mesh holds 3 powers per march
        cfg = small_config(p_values=p_values, dim=2, steps=70,
                           grid=GridSpec(dim=2, points=128, half_width=16.0))
        rows = run_sweep(cfg)
        assert [r.p for r in rows] == list(p_values)
        assert marches == [[1.2, 1.5, 2.0], [2.5, 3.0, 3.5], [4.0]]
        # the small 1D mesh holds them all
        marches.clear()
        run_sweep(small_config(p_values=p_values))
        assert marches == [list(p_values)]

    def test_members_fill_the_history_budget_down_to_a_floor_of_3(self):
        def members(dim, points, steps):
            grid = GridSpec(dim=dim, points=points, half_width=50.0)
            return harness.march_members(
                small_config(dim=dim, grid=grid, steps=steps))

        assert members(1, 1024, 100) == 40  # the bracket benchmark's mesh
        assert members(1, 1024, 600) == 6  # criterion 09
        assert members(2, 128, 70) == 3
        assert members(2, 256, 600) == 3  # one history alone exceeds 32 MiB
        assert members(1, 64, 24) > 40

    def test_rows_equal_the_rows_of_single_marches(self):
        cfg = small_config(p_values=(1.5, 2.0, 3.0, 4.0))
        serial = [row for p in cfg.p_values
                  for row in harness._classify(cfg, [p])]
        assert run_sweep(cfg) == serial

    def test_nonpositive_forcing_mass_noted(self):
        rows = run_sweep(
            small_config(w=DataSpec(kind="gaussian", amplitude=-0.05, width=1.0))
        )
        assert "forcing-mass-nonpositive" in rows[0].note

    def test_csv_layout_and_stability(self):
        cfg = small_config(p_values=(2.0, 3.0))
        csv_a = rows_to_csv(run_sweep(cfg))
        csv_b = rows_to_csv(run_sweep(cfg))
        assert csv_a == csv_b
        lines = csv_a.strip().split("\n")
        assert lines[0] == "p,p_c,p_star,beta,classification,blowup_time_est,decay_exponent,r_squared,note"
        assert len(lines) == 3
        assert lines[1].startswith("2.0,1.25,")


def fake_rows(label_of, marches=None):
    """A stand-in for `harness._classify` that labels each p by `label_of`
    and appends the p list of every march to `marches`."""
    def fake(config, ps):
        if marches is not None:
            marches.append(list(ps))
        rows = []
        for p in ps:
            label = label_of(p)
            rows.append(SweepRow(
                p=p,
                p_c=0.0,
                p_star=None,
                beta=0.0,
                classification=label,
                blowup_time_est=1.0 / p if label == "BlowUp" else None,
                decay_exponent=None,
                r_squared=None,
            ))
        return rows
    return fake


def plateau_label(p):
    if p <= 1.6:
        return "BlowUp"
    if p >= 2.8:
        return "Global"
    return "Undetermined"


class TestBracket:
    def test_sharp_step_is_bracketed(self, monkeypatch):
        monkeypatch.setattr(
            harness, "_classify",
            fake_rows(lambda p: "BlowUp" if p < 2.0 else "Global"),
        )
        cfg = small_config(p_values=(1.5, 3.0))
        res = bracket_pstar(cfg, tol_p=0.05)
        assert isinstance(res, BracketResult)
        assert res.p_hi - res.p_lo <= 0.05
        assert res.p_lo < 2.0 <= res.p_hi
        assert abs(res.midpoint - 2.0) <= 0.05
        assert res.undetermined == ()

    def test_no_straddle_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "_classify", fake_rows(lambda p: "Global"))
        with pytest.raises(BracketingError):
            bracket_pstar(small_config(p_values=(1.5, 3.0)), tol_p=0.1)

    def test_undetermined_plateau_reported(self, monkeypatch):
        monkeypatch.setattr(harness, "_classify", fake_rows(plateau_label))
        res = bracket_pstar(small_config(p_values=(1.5, 3.0)), tol_p=0.1)
        # the plateau blocks refinement: the bracket stays wide but the
        # undetermined probes are reported for diagnosis
        assert res.p_hi - res.p_lo > 0.1
        assert len(res.undetermined) > 0

    # Probe sequences of the one-probe-at-a-time bisection; marching look-
    # ahead probes in lockstep must not change them.
    @pytest.mark.parametrize("p_values, tol_p, label, probes, undetermined", [
        ((1.5, 3.0), 0.05, lambda p: "BlowUp" if p < 2.0 else "Global",
         [1.5, 3.0, 2.25, 1.875, 2.0625, 1.96875, 2.015625], ()),
        ((1.5, 3.0), 0.1, plateau_label,
         [1.5, 3.0, 2.25, 1.875, 2.625], (2.25, 1.875, 2.625)),
        ((1.5, 2.2, 3.5), 0.1,
         lambda p: ("BlowUp" if p < 2.33
                    else "Undetermined" if p < 2.4 else "Global"),
         [1.5, 2.2, 3.5, 2.85, 2.5250000000000004, 2.3625000000000003,
          2.28125, 2.403125, 2.3421875, 2.31171875],
         (2.3625000000000003, 2.3421875)),
    ], ids=["sharp-step", "plateau", "three-p-values"])
    def test_probe_sequence_is_the_serial_one(self, monkeypatch, p_values, tol_p,
                                              label, probes, undetermined):
        marches = []
        monkeypatch.setattr(harness, "_classify", fake_rows(label, marches))
        res = bracket_pstar(small_config(p_values=p_values), tol_p=tol_p)
        # exactly the serial probes: no row for a look-ahead never asked for
        assert [row.p for row in res.rows] == probes
        assert res.undetermined == undetermined
        assert all(1 <= len(m) <= harness.march_members(small_config())
                   for m in marches)
        marched = [p for m in marches for p in m]
        assert len(marched) == len(set(marched))  # no p is marched twice
        assert len(marches) < len(probes)

    def test_closed_form_labels_take_one_march(self, monkeypatch):
        marches = []
        p_star = 7.0 / 3.0  # closed form at small_config's alpha, s, sigma, dim
        monkeypatch.setattr(
            harness, "_classify",
            fake_rows(lambda p: "BlowUp" if p < p_star else "Global", marches))
        res = bracket_pstar(small_config(p_values=(1.5, 3.0)), tol_p=0.05)
        probes = [1.5, 3.0, 2.25, 2.625, 2.4375, 2.34375, 2.296875]
        assert [row.p for row in res.rows] == probes
        assert marches == [probes]
        assert res.marches == (tuple(probes),)
        assert (res.p_lo, res.p_hi) == (2.296875, 2.34375)

    def test_a_wrong_prediction_costs_one_more_march(self, monkeypatch):
        marches = []
        monkeypatch.setattr(
            harness, "_classify",
            fake_rows(lambda p: "BlowUp" if p < 2.0 else "Global", marches))
        res = bracket_pstar(small_config(p_values=(1.5, 3.0)), tol_p=0.05)
        # 2.25 and 2.0625 are Global though below p* = 7/3: each wrong
        # outcome ends a march, and the next looks ahead from the real bracket
        assert marches == [[1.5, 3.0, 2.25, 2.625, 2.4375, 2.34375, 2.296875],
                           [1.875, 2.0625, 2.15625, 2.203125],
                           [1.96875, 2.015625]]
        assert res.marches == tuple(tuple(m) for m in marches)
        assert [row.p for row in res.rows] == [1.5, 3.0, 2.25, 1.875, 2.0625,
                                               1.96875, 2.015625]

    def test_marches_hold_the_next_midpoints(self, monkeypatch):
        marches = []
        monkeypatch.setattr(
            harness, "_classify",
            fake_rows(lambda p: "BlowUp" if p < 2.0 else "Global", marches))
        # N alpha <= 2 s (alpha + sigma): no closed-form p*, so p* = inf and
        # every p not marched yet is predicted to blow up
        cfg = small_config(p_values=(1.5, 3.0), s=0.9, sigma=-0.1)
        bracket_pstar(cfg, tol_p=0.05)
        # The initial pass predicts no Global, so it marches alone; each
        # later march holds the path that follows if every new probe blows
        # up, and each Global outcome ends a march.  7 probes in 4 marches.
        assert marches == [[1.5, 3.0], [2.25, 2.625, 2.8125, 2.90625, 2.953125],
                           [1.875, 2.0625, 2.15625, 2.203125],
                           [1.96875, 2.015625]]

    def test_no_straddle_marches_only_the_initial_pass(self, monkeypatch):
        marches = []
        monkeypatch.setattr(harness, "_classify",
                            fake_rows(lambda p: "Global", marches))
        with pytest.raises(BracketingError, match="do not straddle"):
            bracket_pstar(small_config(p_values=(1.5, 3.0)), tol_p=0.1)
        # the initial pass holds the whole path predicted from p* = 7/3
        assert marches == [[1.5, 3.0, 2.25, 2.625, 2.4375, 2.34375]]

    def test_real_bisection_takes_one_march_of_identical_rows(self):
        # criterion 09 at 100 steps: the inputs of the `bracket` benchmark
        cfg = small_config(
            p_values=(1.8, 3.0), t_end=50.0, steps=100,
            w=DataSpec(kind="gaussian", amplitude=0.4, width=1.0),
            grid=GridSpec(dim=1, points=1024, half_width=50.0),
            thresholds=ClassifyThresholds(u_max=1e8, ratio_max=10.0, t_end=50.0,
                                          beta=0.09375))
        res = bracket_pstar(cfg, tol_p=0.2)
        assert res.marches == ((1.8, 3.0, 2.4, 2.1, 2.25),)
        assert (res.p_lo, res.p_hi) == (2.25, 2.4)
        serial = [row for p in (1.8, 3.0, 2.4, 2.1, 2.25)
                  for row in harness._classify(cfg, [p])]
        assert list(res.rows) == serial

    def test_bad_tolerance(self):
        for tol_p in (0.0, -0.1, float("nan")):
            with pytest.raises(DomainError, match="tol_p must be positive"):
                bracket_pstar(small_config(), tol_p=tol_p)

    def test_a_tolerance_below_the_float_spacing_returns(self):
        # Once p_lo and p_hi are adjacent floats no probe lies between them.
        # Run in a child process, so that a bisection that never stops
        # fails on the timeout instead of hanging the suite.
        script = (
            "from test_harness import fake_rows, small_config\n"
            "import fracsim.harness as harness\n"
            "harness._classify = fake_rows("
            "lambda p: 'BlowUp' if p < 2.0 else 'Global')\n"
            "res = harness.bracket_pstar(small_config(p_values=(1.5, 3.0)), "
            "tol_p=1e-300)\n"
            "print(repr((res.p_lo, res.p_hi)))\n"
        )
        paths = (Path(fracsim.__file__).parents[1], Path(__file__).parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, env=env, timeout=30)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == repr((math.nextafter(2.0, 0.0), 2.0))

    @pytest.mark.parametrize("overrides", [{}, dict(s=0.9, sigma=-0.1)],
                             ids=["p-star", "no-p-star"])
    def test_marches_keep_the_serial_bisection(self, monkeypatch, overrides):
        # Seeded random brackets: sharp steps and Undetermined plateaus,
        # 2-4 p_values, tol_p from 0.3 to 1e-4, march caps of 3 and of the
        # config.  Each must give the rows, undetermined list and bracket
        # (or the error) of the serial bisection, a march of one per probe.
        rng = random.Random(20)
        cap_of_config = harness.march_members

        def bracket(config, tol_p, label, members):
            marches = []
            monkeypatch.setattr(harness, "_classify", fake_rows(label, marches))
            monkeypatch.setattr(harness, "march_members", lambda config: members)
            try:
                res = bracket_pstar(config, tol_p)
            except BracketingError as exc:
                return str(exc), marches
            return (res.rows, res.undetermined, res.p_lo, res.p_hi), marches

        for _ in range(200):
            t = rng.uniform(1.3, 4.0)
            if rng.random() < 0.5:
                label = lambda p, t=t: "BlowUp" if p < t else "Global"
            else:
                lo, hi = t - rng.uniform(0.0, 0.5), t + rng.uniform(0.0, 0.5)
                label = lambda p, lo=lo, hi=hi: (
                    "BlowUp" if p <= lo else "Global" if p >= hi else "Undetermined")
            p_values = sorted(max(1.01, t + rng.uniform(-1.5, 1.5))
                              for _ in range(rng.randint(2, 4)))
            config = small_config(p_values=tuple(p_values), **overrides)
            tol_p = 10.0 ** rng.uniform(-4.0, math.log10(0.3))
            members = rng.choice([3, cap_of_config(config)])
            serial, _ = bracket(config, tol_p, label, 1)
            result, marches = bracket(config, tol_p, label, members)
            assert result == serial
            assert all(1 <= len(m) <= members for m in marches)
            marched = [p for m in marches for p in m]
            assert len(marched) == len(set(marched))  # no p is marched twice


class TestCli:
    def test_exponents_json(self, capsys):
        code = cli_main(
            ["exponents", "--alpha", "0.5", "--s", "0.4", "--sigma", "-0.25",
             "--p", "2.0", "--N", "1", "--q", "4.0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p_star"] == pytest.approx(7.0 / 3.0)
        assert payload["p_c"] == pytest.approx(1.25)
        assert payload["p_fujita"] == pytest.approx(1.8)

    def test_sweep_writes_csv(self, tmp_path, capsys):
        cfg = {
            "schema": 1,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "p_values": [3.0],
            "u0": {"kind": "zero"},
            "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
            "grid": {"points": 64, "half_width": 10.0},
            "time": {"t_end": 2.0, "steps": 24},
            "classify": {"t_end": 2.0},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "rows.csv"
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0].startswith("p,p_c,p_star,")
        assert len(lines) == 2

    @staticmethod
    def simulate_config(tmp_path) -> tuple[dict, str]:
        """A one-p config (p = 3, Global) and the path it is written to."""
        cfg = json.loads(config_with("classify.t_end", 2.0))
        del cfg["p_values"]
        cfg["p"] = 3.0
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(cfg))
        return cfg, str(cfg_path)

    def test_simulate_explains_its_run_in_one_json_line(self, tmp_path, capsys):
        cfg, cfg_path = self.simulate_config(tmp_path)
        assert cli_main(["simulate", "--config", cfg_path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,Lq_norm,Linf_norm,tbeta_Lq\n")
        assert captured.err.count("\n") == 1
        summary = json.loads(captured.err)
        result, = harness.config_from_dict(cfg).simulate([3.0])
        assert summary == {
            "classification": result.classification,
            "blowup_time_est": None,
            "decay_exponent": result.decay_exponent,
            "decay_r_squared": result.decay_r_squared,
            "tail_fraction_max": result.tail_fraction_max,
            "notes": result.notes,
            "trigger": None,
        }
        assert summary["classification"] == "Global"

    @pytest.mark.filterwarnings("ignore::fracsim.ResolutionWarning")
    def test_simulate_reports_its_trigger(self, tmp_path, capsys):
        cfg, _ = self.simulate_config(tmp_path)
        cfg["u0"] = {"kind": "gaussian", "amplitude": 5.0, "width": 1.0}
        cfg_path = tmp_path / "blowup.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["simulate", "--config", str(cfg_path)]) == 0
        summary = json.loads(capsys.readouterr().err)
        result, = harness.config_from_dict(cfg).simulate([3.0])
        trigger = result.trigger
        assert summary["classification"] == "BlowUp"
        assert summary["trigger"] == {"kind": trigger.kind, "t": trigger.t,
                                      "value": trigger.value}
        assert summary["notes"][0] == trigger.note

    def test_simulate_writes_non_finite_values_as_strings(self, tmp_path, capsys,
                                                          monkeypatch):
        _, cfg_path = self.simulate_config(tmp_path)
        real = SweepConfig.simulate

        def blown_up(self, ps):
            results = real(self, ps)
            results[0].tail_fraction_max = float("nan")
            results[0].blowup_time_est = float("inf")
            return results

        monkeypatch.setattr(SweepConfig, "simulate", blown_up)
        assert cli_main(["simulate", "--config", cfg_path]) == 0
        summary = json.loads(capsys.readouterr().err)
        assert summary["tail_fraction_max"] == "nan"
        assert summary["blowup_time_est"] == "inf"

    def test_sweep_ignores_a_stale_thread_variable(self, tmp_path, monkeypatch):
        # A stale FRACSIM_THREADS must neither fail nor change the sweep.
        cfg = {
            "schema": 1,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "p_values": [2.0, 3.0],
            "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
            "grid": {"points": 64, "half_width": 10.0},
            "time": {"t_end": 2.0, "steps": 24},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        unset_path, set_path = tmp_path / "unset.csv", tmp_path / "set.csv"
        monkeypatch.delenv("FRACSIM_THREADS", raising=False)
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(unset_path)]) == 0
        monkeypatch.setenv("FRACSIM_THREADS", "abc")
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(set_path)]) == 0
        assert set_path.read_text() == unset_path.read_text()
        assert len(unset_path.read_text().strip().split("\n")) == 3

    @pytest.mark.parametrize("text, names, command", [
        ('{"schema": 1, "model": ', "not valid JSON", "sweep"),
        ('{"schema": 1, "p": 3.0}', "config is missing model.dim", "sweep"),
        ('{"schema": 1, "p": 3.0, "model": {"alpha": 0.5, "s": 0.4, '
         '"sigma": -0.25, "dim": 1}, "time": {"steps": "abc"}}', "config time.steps: ",
         "sweep"),
        ('{"schema": 1, "p": 3.0, "model": {"alpha": 0.5, "s": 0.4, '
         '"sigma": -0.25, "dim": 1}, "grid": {"points": 64}, '
         '"forcing_scheme": "bogus"}', "unknown forcing scheme 'bogus'", "sweep"),
        (config_with("time.grading", 0.5), "grading must be >= 1", "sweep"),
        (config_with("time.grading", 0.5), "grading must be >= 1", "bracket"),
        (config_with("time.grading", float("nan")), "grading must be >= 1", "sweep"),
        (config_with("time.t_end", float("inf")), "need finite t_end > 0", "sweep"),
        (config_with("time.steps", 20.7), "config time.steps: expected an integer", "sweep"),
        (config_with("model.dim", 1.9), "config model.dim: expected an integer", "sweep"),
        (config_with("model.dim", True), "config model.dim: expected an integer", "sweep"),
        (config_with("grid.points", 64.5), "config grid.points: expected an integer", "sweep"),
        (config_with("classify.u_max", -1), "u_max must be finite and > 0", "sweep"),
        (config_with("classify.u_max", -1), "u_max must be finite and > 0", "bracket"),
        (config_with("classify.ratio_max", 1.0), "ratio_max must be finite and > 1", "sweep"),
        (config_with("classify.monotone_slack", -0.1), "monotone_slack must be >= 0",
         "sweep"),
        (config_with("classify.t_end", 5.0), "exceeds time.t_end", "sweep"),
        (config_with("classify.t_end", 5.0), "exceeds time.t_end", "bracket"),
        (config_with("q_report", float("nan")), "q_report must be >= 1 or inf, got nan",
         "sweep"),
        (config_with("q_report", 0.5), "q_report must be >= 1 or inf, got 0.5",
         "sweep"),
        (config_with("p_values", [2.0, math.inf]),
         "p must be finite and exceed 1, got inf", "sweep"),
        (config_with("time.stpes", 20), "config time.stpes: unknown key", "sweep"),
        (config_with("q_reprot", 4.0), "config q_reprot: unknown key", "sweep"),
        (config_with("w.widht", 1.0), "config w.widht: unknown key", "sweep"),
        (config_with("model.N", 1), "config model.N: unknown key", "bracket"),
        (config_with("hypotheses.m", 2.0), "config hypotheses.m: unknown key", "sweep"),
        (config_with("p", 3.0), "config p and p_values exclude each other", "sweep"),
        (config_with("w", {"amplitude": 0.4, "width": 1.0}),
         "given for zero data; name a kind", "simulate"),
        (config_with("p_values", []), "p_values must name at least one power", "sweep"),
        (config_with("p_values", []), "p_values must name at least one power", "bracket"),
        (config_with("model.alpha", True), "config model.alpha: expected a number, got True",
         "sweep"),
        (config_with("model.sigma", False),
         "config model.sigma: expected a number, got False", "simulate"),
        (config_with("w.amplitude", True), "config w.amplitude: expected a number, got True",
         "bracket"),
        (config_with("p_values", [True, 3.0]),
         "config p_values: expected a number, got True", "sweep"),
        (config_with("p_values", "23"),
         "config p_values: expected a list of numbers, got str", "sweep"),
        (config_with("p_values", {"2": 3.0}),
         "config p_values: expected a list of numbers, got dict", "bracket"),
        (config_with("model.alpha", "0.5"),
         "config model.alpha: expected a number, got '0.5'", "sweep"),
    ], ids=["malformed-json", "no-model", "steps-not-int", "bogus-scheme",
            "grading-below-one", "bracket-grading-below-one", "grading-nan",
            "t-end-infinite", "steps-fractional", "dim-fractional", "dim-bool",
            "points-fractional", "u-max-negative", "bracket-u-max-negative",
            "ratio-max-one", "slack-negative", "classify-t-end-past-horizon",
            "bracket-classify-t-end-past-horizon", "q-report-nan",
            "q-report-below-one", "p-infinite", "time-key-misspelled",
            "top-level-key-misspelled", "w-key-misspelled", "model-key-unknown",
            "sweep-hypotheses-key-misspelled", "p-and-p-values", "amplitude-without-kind",
            "p-values-empty", "bracket-p-values-empty", "alpha-bool", "sigma-bool",
            "bracket-amplitude-bool", "p-values-bool-entry", "p-values-string",
            "bracket-p-values-object", "alpha-string"])
    def test_bad_config_is_one_line_usage_error(self, tmp_path, capsys, text, names,
                                                command):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(text)
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err

    def test_hypotheses_reads_its_section(self, tmp_path, capsys):
        cfg = {
            "schema": 1, "p": 3.0,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
            "grid": {"points": 64, "half_width": 10.0},
            "hypotheses": {"q": 5.0, "M": 2.0, "tail_norm_exponent": "r"},
        }
        cfg_path = tmp_path / "hyp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["hypotheses", "--config", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        config = config_from_dict(cfg)
        w = config.w.build(config.grid)
        zero = fracsim.gaussian_field(config.grid, 0.0, 1.0)
        want = fracsim.local_average_hypotheses(
            config.model(3.0), zero, w, q=5.0, M=2.0, delta=1.0, M_script=1.0,
            tail_norm_exponent="r",
        )
        assert payload["M"] == 2.0
        assert payload["R_0"] == want.R_0 and payload["avg_rhs"] == want.avg_rhs
        assert "smallness_sup" not in payload

    @pytest.mark.parametrize("section, names", [
        ({"q": "abc"}, "config hypotheses.q: "),
        ({"M": [1.0]}, "config hypotheses.M: "),
        ("abc", "config hypotheses: expected an object, got str"),
        ({"M": math.nan}, "need finite M >= 0"),
        ({"m": 2.0, "M_script": 3.0}, "config hypotheses.m: unknown key"),
    ], ids=["q-not-float", "M-is-list", "not-an-object", "M-nan", "m-misspelled"])
    def test_bad_hypotheses_section_is_one_line_usage_error(
        self, tmp_path, capsys, section, names
    ):
        cfg = {
            "schema": 1, "p": 3.0,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "grid": {"points": 64, "half_width": 10.0},
            "hypotheses": section,
        }
        cfg_path = tmp_path / "hyp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["hypotheses", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err

    def test_hypotheses_on_zero_data_writes_inf_as_a_string(self, tmp_path, capsys):
        cfg = {
            "schema": 1, "p": 3.0,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1},
            "u0": {"kind": "zero"}, "w": {"kind": "zero"},
            "grid": {"points": 64, "half_width": 10.0},
        }
        cfg_path = tmp_path / "hyp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["hypotheses", "--config", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["local_F_rhs"] == "inf"
        assert "zero-data" in payload["flags"]

    def test_nan_tolerance_is_one_line_usage_error(self, tmp_path, capsys,
                                                   monkeypatch):
        def no_march(config, ps):
            raise AssertionError("marched with a NaN tolerance")

        monkeypatch.setattr(harness, "_classify", no_march)
        cfg_path = tmp_path / "bracket.json"
        cfg_path.write_text(config_with("classify.t_end", 2.0))
        assert cli_main(["bracket", "--config", str(cfg_path),
                         "--tol-p", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol_p must be positive, got nan\n"

    def test_missing_config_is_usage_error(self, capsys):
        assert cli_main(["simulate", "--config", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("flag", ["--config", "--out"])
    def test_directory_path_is_one_line_usage_error(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(config_with("classify.t_end", 2.0))
        paths = {"--config": str(cfg_path), "--out": str(tmp_path / "rows.csv")}
        paths[flag] = str(tmp_path)
        argv = ["sweep"] + [arg for item in paths.items() for arg in item]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Is a directory" in captured.err

    @pytest.mark.parametrize("command", ["sweep", "bracket", "simulate"])
    @pytest.mark.parametrize("out", ["a-directory", "missing/run.out"])
    def test_unwritable_out_fails_before_the_march(self, tmp_path, capsys, monkeypatch,
                                                   command, out):
        def no_march(config, ps):
            raise AssertionError("marched before checking --out")

        monkeypatch.setattr(harness.SweepConfig, "simulate", no_march)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_with("p_values", [3.0]) if command == "simulate"
                            else config_with("classify.t_end", 2.0))
        (tmp_path / "a-directory").mkdir()
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / out)]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(tmp_path / out) in captured.err

    def test_failed_run_leaves_out_as_it_was(self, tmp_path, monkeypatch):
        def failing_march(config, ps):
            raise NumericalError("march failed")

        monkeypatch.setattr(harness.SweepConfig, "simulate", failing_march)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(config_with("p_values", [3.0]))
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("kept\n")
        for out_path in (kept, new):
            assert cli_main(["simulate", "--config", str(cfg_path),
                             "--out", str(out_path)]) == 2
        assert kept.read_text() == "kept\n"
        assert not new.exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_kernel_profile_csv(self, tmp_path):
        out_path = tmp_path / "prof.csv"
        code = cli_main(
            ["kernel", "--mode", "profile", "--kind", "F", "--alpha", "0.5",
             "--s", "0.4", "--points", "8", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "r,value"
        assert len(lines) == 9

    @pytest.mark.parametrize("kind", ["F", "G"])
    def test_kernel_norms_fit_the_predicted_slopes(self, capsys, kind):
        assert cli_main(["kernel", "--mode", "norms", "--kind", kind, "--alpha",
                         "0.5", "--s", "0.4", "--points", "9", "--q", "1", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,q,norm,predicted_slope,fitted_slope"
        slopes = {(q, pred, fit) for _, q, _, pred, fit in
                  (map(float, line.split(",")) for line in lines[1:])}
        assert {q for q, _, _ in slopes} == {1.0, 2.0}
        for _, pred, fit in slopes:
            assert abs(fit - pred) / max(abs(pred), 0.01) <= 0.02

    @pytest.mark.parametrize("flags, names", [
        (["--mode", "norms", "--points", "1"], "--points must be >= 2"),
        (["--points", "0"], "--points must be >= 2"),
        (["--points", "-2"], "--points must be >= 2"),
        (["--mode", "profile", "--r-min", "0"], "0 < --r-min < --r-max"),
        (["--r-min", "-1"], "0 < --r-min < --r-max"),
        (["--r-min", "10", "--r-max", "1"], "0 < --r-min < --r-max"),
        (["--r-max", "inf"], "0 < --r-min < --r-max"),
        (["--mode", "norms", "--q", "nan"], "--q must be >= 1 or inf, got nan"),
        (["--mode", "norms", "--q", "2", "0.5"], "--q must be >= 1 or inf, got 0.5\n"),
    ], ids=["norms-one-point", "zero-points", "negative-points", "r-min-zero",
            "r-min-negative", "r-min-above-r-max", "r-max-infinite", "q-nan",
            "q-below-one"])
    def test_bad_kernel_flag_is_one_line_usage_error(self, capsys, flags, names):
        args = ["kernel", "--alpha", "0.5", "--s", "0.4"] + flags
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err

    def test_bracket_reports_p_star_and_blowup_times(self, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setattr(
            harness, "_classify",
            fake_rows(lambda p: "BlowUp" if p < 2.0 else "Global"),
        )
        cfg_path = tmp_path / "bracket.json"
        cfg_path.write_text(config_with("classify.t_end", 2.0))
        assert cli_main(["bracket", "--config", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"p_lo", "p_hi", "midpoint", "p_star",
                                "undetermined", "evaluations", "marches"}
        marched = [p for march in payload["marches"] for p in march]
        assert len(marched) == len(set(marched))
        assert {e["p"] for e in payload["evaluations"]} <= set(marched)
        assert payload["p_star"] == pytest.approx(7.0 / 3.0)
        assert payload["p_lo"] < 2.0 <= payload["p_hi"]
        assert payload["evaluations"]
        for entry in payload["evaluations"]:
            assert set(entry) == {"p", "classification", "blowup_time_est", "note"}
            blowup = entry["classification"] == "BlowUp"
            assert entry["blowup_time_est"] == (1.0 / entry["p"] if blowup else None)

    def test_kernel_norms_only_in_one_dimension(self, capsys):
        args = ["kernel", "--mode", "norms", "--alpha", "0.5", "--s", "0.4",
                "--points", "3", "--q", "2"]
        assert cli_main(args + ["--dim", "1"]) == 0
        capsys.readouterr()
        for dim in ("2", "3"):
            assert cli_main(args + ["--dim", dim]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "1D grid" in err

    @pytest.mark.parametrize("flags", [
        ["--q", "5"], ["--q", "inf"], ["--q", "1", "5"],
        ["--kind", "G", "--s", "0.2", "--q", "5"],
    ], ids=["q-c", "inf", "mixed", "y-kernel"])
    def test_kernel_norms_reject_q_at_or_above_q_c(self, capsys, flags):
        # q_c = 1/(1 - 2s) = 5 for Z at s = 0.4, and 1/(1 - 4s) = 5 for Y at
        # s = 0.2: the kernel is not in L^q there.
        args = ["kernel", "--mode", "norms", "--alpha", "0.5", "--s", "0.4",
                "--points", "3", *flags]
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "requires q < 5)" in captured.err

    @pytest.mark.parametrize("flags, predicted", [
        (["--q", "1", "2"], {-0.0, -0.3125}),
        (["--kind", "G", "--q", "5", "inf"], {-1.0, -1.125}),
        (["--alpha", "1", "--q", "5"], {-1.0}),
    ], ids=["z-below-q-c", "y-bounded", "alpha-one"])
    def test_kernel_norms_in_l_q_are_unchanged(self, capsys, flags, predicted):
        # Y is bounded at s = 0.4 (4s > 1), and neither kernel is singular
        # at alpha = 1, so every q has a slope there.
        args = ["kernel", "--mode", "norms", "--alpha", "0.5", "--s", "0.4",
                "--points", "3", *flags]
        assert cli_main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + 3 * len(predicted)
        assert {float(line.split(",")[3]) for line in lines[1:]} == predicted

    @pytest.mark.parametrize("section, model, names", [
        ({"q": 2.0}, {}, "violates the scaling condition for q=2.0"),
        ({}, {"s": 0.6}, "criterion requires dim > 2s"),
    ], ids=["q-below-window", "dim-not-above-2s"])
    def test_unsupported_hypotheses_are_one_line_usage_errors(
        self, tmp_path, capsys, section, model, names
    ):
        cfg = {
            "schema": 1, "p": 3.0,
            "model": {"alpha": 0.5, "s": 0.4, "sigma": -0.25, "dim": 1} | model,
            "w": {"kind": "gaussian", "amplitude": 0.05, "width": 1.0},
            "grid": {"points": 64, "half_width": 10.0},
            "hypotheses": section,
        }
        cfg_path = tmp_path / "hyp.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["hypotheses", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert names in captured.err

    def test_hypotheses_leave_tail_norm_exponent_to_its_default(self):
        cfg = {"hypotheses": {"q": 4.0}}
        assert "tail_norm_exponent" not in harness.hypotheses_options(cfg, 2.0)
        cfg["hypotheses"]["tail_norm_exponent"] = "r"
        assert harness.hypotheses_options(cfg, 2.0)["tail_norm_exponent"] == "r"

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=str(Path(fracsim.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "fracsim", "exponents", "--alpha", "0.5",
             "--s", "0.4", "--sigma", "-0.25", "--p", "3", "--N", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["p_star"] == pytest.approx(7.0 / 3.0)

    def test_simulate_on_overflowing_data_writes_one_json_line(self, tmp_path):
        # u0 of amplitude 1e308 overflows in the first transforms; the march
        # reports it as its non_finite trigger, and NumPy stays silent.
        cfg, _ = self.simulate_config(tmp_path)
        cfg["u0"] = {"kind": "gaussian", "amplitude": 1e308, "width": 1.0}
        cfg_path = tmp_path / "huge.json"
        cfg_path.write_text(json.dumps(cfg))
        env = dict(os.environ, PYTHONPATH=str(Path(fracsim.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "fracsim", "simulate", "--config", str(cfg_path),
             "--out", str(tmp_path / "run.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stderr.count("\n") == 1
        summary = json.loads(run.stderr)
        assert summary["classification"] == "BlowUp"
        assert summary["trigger"]["kind"] == "non_finite"

    def test_closed_stdout_exits_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(fracsim.__file__).parents[1]))
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader left: every write to stdout fails
        try:
            run = subprocess.run(
                [sys.executable, "-m", "fracsim", "exponents", "--alpha", "0.5",
                 "--s", "0.4", "--sigma", "-0.25", "--p", "3", "--N", "1"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert run.stderr == ""
        assert run.returncode == 0

    def test_selftest_passes(self, capsys):
        assert cli_main(["selftest"]) == 0
