"""Energy records, decay fits, a priori estimates, observability, spectra."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import reference_sim_config
from kawalab import diagnostics
from kawalab.cli import write_series_csv
from kawalab.diagnostics import (DecayFit, check_apriori_estimates,
                                 estimate_observability, fit_decay,
                                 random_initial_data, sandwich_margins,
                                 spectral_residuals, spectral_threshold)
from kawalab.solver import RECORD, run


def _records(**columns):
    """Records with the given columns; every other column is zero."""
    n = len(next(iter(columns.values())))
    return np.rec.fromarrays([columns.get(name, np.zeros(n))
                              for name in RECORD.names], dtype=RECORD)


def _fake_records(rate, kappa=1.0, n=60, T=30.0):
    t = np.linspace(0.0, T, n)
    E = kappa * np.exp(-2.0 * rate * t)
    return _records(t=t, E=E, xi=E, l2=E)


def test_fit_decay_recovers_exact_rate():
    fit = fit_decay(_fake_records(0.2), (0.0, 30.0))
    assert fit.rate == pytest.approx(0.2, rel=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.kappa_hat == pytest.approx(1.0, rel=1e-10)


def test_fit_decay_windowing():
    recs = np.rec.array(np.concatenate((_fake_records(0.1)[:30],
                                        _fake_records(0.5, kappa=5.0)[30:])))
    fit = fit_decay(recs, (16.0, 30.0))
    assert fit.rate == pytest.approx(0.5, rel=1e-6)


def test_fit_decay_nothing_to_fit():
    recs = _records(t=np.arange(40.0))
    with pytest.raises(ValueError, match="nothing to fit"):
        fit_decay(recs, (0.0, 40.0))


def test_initial_record_oracles():
    """u = x^2 (pi - x)^2, empty history: closed-form E, E1, traces, H2."""
    pi = math.pi
    cfg = reference_sim_config(
        T_end=0.0,
        u0=lambda x: np.asarray(x) ** 2 * (pi - np.asarray(x)) ** 2)
    (rec,) = run(cfg).records
    assert rec.t == 0.0
    # int_0^pi x^4 (pi - x)^4 dx = pi^9 B(5,5) = pi^9 / 630
    assert rec.E == pytest.approx(pi ** 9 / 630.0, rel=1e-4)
    assert rec.l2 == rec.E   # empty history contributes nothing
    # int_0^pi x^5 (pi - x)^4 dx = pi^10 B(6,5) = pi^10 / 1260
    assert rec.E1 == pytest.approx(pi ** 10 / 1260.0, rel=1e-4)
    assert rec.E2 == 0.0
    assert rec.xi == pytest.approx(rec.E + 0.01 * rec.E1 + 0.01 * rec.E2,
                                   rel=1e-12)
    # u_xx(0) = u_xx(L) = 2 pi^2; both traces are exact on this quartic
    assert rec.w0 == pytest.approx(2.0 * pi ** 2, rel=1e-9)
    # int_0^pi (12x^2 - 12 pi x + 2 pi^2)^2 dx = 0.8 pi^5
    assert rec.h2seminorm == pytest.approx(0.8 * pi ** 5, rel=1e-2)


def test_sandwich_margins_zero_on_valid_run():
    cfg = reference_sim_config(linear_only=True, T_end=5.0)
    result = run(cfg)
    lo, hi = sandwich_margins(result.records, cfg.params, cfg.gains)
    assert lo == 0.0 and hi == 0.0


def test_sandwich_margins_see_xi_above_the_top_bound():
    """xi above (1 + max{L mu1, mu2}) E by twice the slack 1e-12 (1 + E)
    violates the top bound by the slack; at half the slack it holds."""
    cfg = reference_sim_config()
    top = 1.0 + max(cfg.params.L * cfg.gains.mu1, cfg.gains.mu2)
    E = np.array([1.0, 2.0])
    slack = 1e-12 * (1.0 + E)
    over = _records(E=E, xi=top * E + 2.0 * slack)
    lo, hi = sandwich_margins(over, cfg.params, cfg.gains)
    assert lo == 0.0
    assert hi == pytest.approx(slack.max(), rel=1e-3)
    within = _records(E=E, xi=top * E + 0.5 * slack)
    assert sandwich_margins(within, cfg.params, cfg.gains) == (0.0, 0.0)
    # a NaN violation counts as none
    nan = _records(E=np.array([np.nan, 1.0]), xi=np.array([1.0, 1.0]))
    assert sandwich_margins(nan, cfg.params, cfg.gains) == (0.0, 0.0)


def test_write_series_csv(tmp_path):
    """The header is RECORD's names, as README lists them; every value
    round-trips exactly; a run without records writes the header alone."""
    header = ",".join(RECORD.names)
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md"), encoding="utf-8").read()
    assert re.search(r"`series\.csv`\s+\(`([^`]*)`", readme)[1] == header
    cols = {name: np.array([0.1, 1.0 / 3.0, -1.5, 5e-324, 1e300, -0.0]) * k
            for k, name in enumerate(RECORD.names, 1)}
    recs = _records(**cols)
    path = tmp_path / "series.csv"
    write_series_csv(str(path), recs)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == header and lines[-1] == ""
    got = [tuple(map(float, line.split(","))) for line in lines[1:-1]]
    assert got == recs.tolist()
    none = run(reference_sim_config(T_end=0.1, record_every=0)).records
    assert len(none) == 0
    write_series_csv(str(path), none)
    assert path.read_text(encoding="utf-8") == header + "\n"


def test_apriori_skipped_for_nonlinear():
    cfg = reference_sim_config(T_end=1.0)
    result = run(cfg)
    report = check_apriori_estimates(result, cfg)
    assert report == {"skipped": "nonlinear run"}


def test_apriori_estimates_hold_on_linear_run():
    cfg = reference_sim_config(linear_only=True, T_end=5.0, record_every=0,
                               startup_steps=0)
    u0, z0 = diagnostics.random_compatible_data(3, math.pi, cfg.gains,
                                                cfg.kernel)
    from dataclasses import replace
    cfg = replace(cfg, u0=u0, z0=z0)
    result = run(cfg)
    report = check_apriori_estimates(result, cfg)
    assert report["est3"]["pass"] and report["est4"]["pass"]
    assert report["est1"]["C_hat"] > 0.0


@pytest.mark.parametrize("ratio, ok", [(1.06, False), (1.04, True)])
def test_apriori_slack_is_five_percent(ratio, ok):
    """est3 = z_plain(0) <= z_plain(T) + int lam z1^2 passes with 5% slack:
    a stub linear result whose est3 ratio is 1.06 fails, one at 1.04 passes.
    est4 holds with ratio 1 (constant ||u||^2, zero trace)."""
    zeros = np.zeros(2)
    series = SimpleNamespace(t=np.array([0.0, 1.0]), w=zeros, lam_sq=zeros,
                             slam_sq=zeros, l2=np.ones(2),
                             z_plain=np.array([ratio, 1.0]))
    report = check_apriori_estimates(
        SimpleNamespace(series=series, h_norm0_sq=1.0),
        SimpleNamespace(linear_only=True))
    assert report["est3"]["ratio"] == ratio
    assert report["est3"]["pass"] is ok
    assert report["est4"]["ratio"] == 1.0 and report["est4"]["pass"]


def test_compatible_data_satisfies_constraints():
    """z0(0) = u0''(0) = 0 and u0''(L) = beta * int lam(s) z0(-s) ds."""
    cfg = reference_sim_config(T_end=0.0)
    u0, z0 = diagnostics.random_compatible_data(5, math.pi, cfg.gains,
                                                cfg.kernel)
    assert z0(0.0) == pytest.approx(0.0, abs=1e-14)
    # second derivative at the ends by a fine centered difference on [0, L]
    h = 1e-4
    d2_0 = (u0(np.array([0.0, h, 2 * h])) @ np.array([1.0, -2.0, 1.0])) / h ** 2
    L = math.pi
    d2_L = (u0(np.array([L, L - h, L - 2 * h])) @ np.array([1.0, -2.0, 1.0])) / h ** 2
    s = np.linspace(1.0, 2.0, 4001)
    Iz = np.trapezoid(np.array([z0(-si) for si in s]), s)
    # one-sided stencils carry O(h) error ~ |u'''| h ~ 1e-3
    assert abs(d2_0) < 5e-3
    assert d2_L == pytest.approx(cfg.gains.beta * Iz, abs=5e-3)


def test_random_initial_data_deterministic():
    u0a, z0a = random_initial_data(11, math.pi)
    u0b, z0b = random_initial_data(11, math.pi)
    x = np.linspace(0.0, math.pi, 40)
    assert (u0a(x) == u0b(x)).all()
    assert z0a(0.7) == z0b(0.7)
    u0c, _ = random_initial_data(12, math.pi)
    assert not np.allclose(u0a(x), u0c(x))
    # homogeneous Dirichlet ends
    assert abs(u0a(np.array([0.0, math.pi]))).max() < 1e-12


def test_observability_ratios_positive_and_scale_invariant():
    cfg = reference_sim_config(linear_only=True, T_end=5.0, record_every=0)
    c_obs, ratios = estimate_observability(cfg, n_samples=5, seed=0)
    assert c_obs > 0.0
    assert len(ratios) == 5
    assert min(ratios) == c_obs


def test_observability_requires_long_window():
    cfg = reference_sim_config(linear_only=True, T_end=1.0)
    with pytest.raises(ValueError, match="tau2"):
        estimate_observability(cfg, n_samples=1)


def test_spectral_residuals_positive():
    res = spectral_residuals(math.pi, 150, n_pairs=20)
    assert res.shape == (20,)
    assert res.min() > 0.0


def test_spectral_lemma_curve():
    for L in (1.0, 2.0):
        assert spectral_residuals(L, 150, n_pairs=20).min() > 0.0


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECTRAL_SCAN = os.path.join(REPO, "scripts", "spectral_scan.py")


def test_solver_and_diagnostics_import_one_way():
    """The records are built in solver, and diagnostics drives solver.run:
    solver.py imports nothing from diagnostics, and neither module imports
    inside a function, where a cycle would hide."""
    imported = {}
    for name in ("solver", "diagnostics"):
        path = os.path.join(REPO, "src", "kawalab", f"{name}.py")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        local = [f"{fn.name}: line {node.lineno}" for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn)
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not local, f"{name}.py imports inside a function: {local}"
        imported[name] = {
            part for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            for part in (f"{getattr(node, 'module', None) or ''}."
                         f"{alias.name}").split(".")}
    assert "diagnostics" not in imported["solver"]
    assert "solver" in imported["diagnostics"]


def _spectral_scan(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run([sys.executable, SPECTRAL_SCAN, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def _spectral_scan_main(argv):
    """The script's main(argv), run in this interpreter."""
    spec = importlib.util.spec_from_file_location("spectral_scan",
                                                  SPECTRAL_SCAN)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.main(argv)


def test_spectral_scan_script_smoke():
    """scripts/spectral_scan.py at a small N: one CSV row per L in 0.5..10,
    with the residual of a non-critical length well away from zero."""
    proc = _spectral_scan("60")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "L,min_residual,candidate"
    assert len(lines) == 97
    L, residual, _ = lines[1].split(",")
    assert L == "0.5" and float(residual) > 100.0


@pytest.mark.parametrize("arg", ["30", "50", "sixty", "60.5"])
def test_spectral_scan_script_rejects_bad_n(arg, capsys):
    """N must be an integer above the 50 eigenpairs scanned: exit 2 with a
    usage line, no traceback.  'sixty' runs the script in a new interpreter,
    through its sys.exit; the other arguments call its main in this one."""
    if arg == "sixty":
        proc = _spectral_scan(arg)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code = _spectral_scan_main([arg])
        out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("usage:")
    assert "Traceback" not in err


def test_spectral_residuals_needs_fewer_pairs_than_n():
    """All N eigenpairs of the N x N discretization give near-zero residuals
    (2.3e-10 at L = 0.5, N = 30, against 607 from the lowest 29)."""
    assert spectral_residuals(0.5, 30, n_pairs=29).min() > 100.0
    for n_pairs in (30, 31):
        with pytest.raises(ValueError, match=f"n_pairs = {n_pairs}.*N = 30"):
            spectral_residuals(0.5, 30, n_pairs=n_pairs)


def test_spectral_threshold_stabilized():
    thr = spectral_threshold(2.0, Ns=(120, 240), n_pairs=20)
    assert thr > 0.0
    resid = float(spectral_residuals(2.0, 180, n_pairs=20).min())
    assert resid > thr


def _stub_residual_minima(monkeypatch, minima):
    """`spectral_residuals` whose minimum at the n-th resolution is
    minima[n]."""
    monkeypatch.setattr(diagnostics, "spectral_residuals",
                        lambda L, n, n_pairs: np.array([3.0, minima[n]]))


def test_spectral_threshold_is_a_tenth_of_the_smaller_minimum(monkeypatch):
    _stub_residual_minima(monkeypatch, {200: 1.0, 400: 1.2})
    assert spectral_threshold(2.0) == 0.1


def test_spectral_threshold_rejects_a_change_above_half(monkeypatch):
    """Minima 1.0 and 2.5 change by 0.6 of the larger: not stabilized."""
    _stub_residual_minima(monkeypatch, {200: 1.0, 400: 2.5})
    with pytest.raises(ValueError, match="not stabilized"):
        spectral_threshold(2.0)
