"""Tests of the benchmark itself: its checks reject wrong results, its trace
counts what the program reports, and tracing changes no result.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import references as ref  # noqa: E402
import workloads  # noqa: E402
from orthantloop import gaussint, npoint  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Op, Outcome  # noqa: E402


def _kin(n_legs, seed=3, corr_scale=1.0):
    master = np.random.default_rng(99)
    return workloads._jittered(workloads._shape(master, n_legs),
                               np.random.default_rng(seed), corr_scale)


def _unit_op(n_legs, n):
    kin = _kin(n_legs)
    sigma = kin.sigma()
    return Op("unit", "unit", lambda: npoint.evaluate_unit(sigma, n),
              {"kin": kin, "n": n, "sigma": sigma, "group": "interior"})


def _perturbed(out: Outcome, delta: float) -> Outcome:
    values = (out.values[0] + delta,) + tuple(out.values[1:])
    return Outcome(values, out.errors, out.converged)


def _assert_rejects(check, out):
    """The check passes on the program's result and fails on the same result
    moved by twice the bound it applied."""
    verdict = check(out)
    assert verdict.passed, verdict.detail
    assert verdict.bound > 0.0
    assert not check(_perturbed(out, 2.0 * verdict.bound)).passed
    assert not check(_perturbed(out, -2.0 * verdict.bound)).passed


@pytest.mark.parametrize("n_legs,n", [(4, 4), (5, 4), (4, 3)])
def test_unit_check_rejects_perturbed(n_legs, n):
    op = _unit_op(n_legs, n)
    _assert_rejects(lambda o: checks.check_unit(op, o, checks.GENZ_LOOSE, 5), op.run())


def test_relabel_check_rejects_perturbed():
    op = _unit_op(6, 6)
    _assert_rejects(lambda o: checks.check_relabel(op, o, 5), op.run())


def test_duplicate_check_rejects_perturbed():
    kin = _kin(4)
    cfg = kin.config(dimension=5, powers=(1, 2, 1, 1))
    op = Op("dup", "duplicate", lambda: workloads.dimshift.raise_power_duplicate(cfg),
            {"kin": kin, "config": cfg})
    _assert_rejects(lambda o: checks.check_duplicate(op, o), op.run())


def test_simplex_check_rejects_perturbed():
    kin = _kin(4)
    cfg = kin.config(dimension=5)
    op = Op("raise", "raise", lambda: workloads.dimshift.raise_dimension(cfg),
            {"kin": kin, "n": 5, "powers": (1, 1, 1, 1)})
    _assert_rejects(lambda o: checks.check_simplex(op, o, 5, 7), op.run())


def test_series_check_rejects_perturbed():
    op = workloads.build("epsilon", 4).ops[0]
    out = op.run()
    verdicts = checks.check_series(op, out)
    assert all(v.passed for v in verdicts), [v.detail for v in verdicts]
    for v in verdicts:
        bad = _perturbed(out, 2.0 * v.bound)
        assert not any(w.passed for w in checks.check_series(op, bad))


def test_two_point_reference_is_the_angle_form():
    m1, m2, c = 1.1, 0.8, 0.3
    sigma = np.array([[m1 * m1, m1 * m2 * c], [m1 * m2 * c, m2 * m2]])
    value, err = ref.unit_reference(sigma, 2, checks.GENZ_TIGHT, 0)
    tau = np.arccos(c)
    assert value == pytest.approx(tau / (m1 * m2 * np.sin(tau)), rel=1e-14)
    assert err < 1e-13


def test_integrand_nodes_equal_neval():
    rho = _kin(4).sigma()
    rho = rho / np.sqrt(np.outer(np.diag(rho), np.diag(rho)))
    with Tracer() as tracer:
        gaussint.i_quad(rho)
        npoint.evaluate_unit(_kin(6).sigma(), 6)
    m = tracer.metrics()
    assert m["quadrature.adaptive_batch.nodes"] > 0
    assert m["quadrature.adaptive_batch.nodes"] == m["quadrature.integrand_nodes"]
    assert m["quadrature.adaptive_batch.evals"] >= m["quadrature.adaptive_batch.nodes"]


def test_traced_results_are_bit_identical():
    wl = workloads.build("scan", 3)
    ops = [op for op in wl.ops if op.kind in ("unit", "cli_compute")
           and op.data["kin"].n_legs <= 6]
    plain = [op.run() for op in ops]
    with Tracer() as tracer:
        traced = [op.run() for op in ops]
    assert plain == traced
    calls = tracer.metrics()
    assert calls["npoint.evaluate_unit.calls"] >= len(ops)
    assert calls["cli.run.calls"] == 2


def test_tracer_restores_originals_and_reports_absent_names():
    from orthantloop import dimshift
    before = (npoint.evaluate_unit, dimshift.evaluate_unit, gaussint.quartet_batch)
    traced = {"npoint": ("evaluate_unit", "no_such_function"), "nomodule": ("f",)}
    with Tracer(traced=traced) as tracer:
        assert dimshift.evaluate_unit is not before[1]
        npoint.evaluate_unit(_kin(4).sigma(), 4)
    assert (npoint.evaluate_unit, dimshift.evaluate_unit, gaussint.quartet_batch) == before
    assert sorted(tracer.absent) == ["nomodule.f", "npoint.no_such_function"]
    m = tracer.metrics()
    assert m["npoint.no_such_function.calls"] == 0
    assert m["npoint.evaluate_unit.calls"] == 1
    assert m["trace.absent_names"] == 2


def test_inputs_follow_the_seed():
    def inputs(seed):
        return [op.data["kin"].k2 for op in workloads.build("shift", seed).ops]
    a, b, c = inputs(1), inputs(1), inputs(2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not any(np.array_equal(x, z) for x, z in zip(a, c))


def test_reference_seeds_fit_genz_from_any_run_seed():
    """A run seed near 2**32 must still give the references a valid seed."""
    seeds = [ref.subseed(s, i) for s in (0, 1829909101, 2**32 - 1, 2**63) for i in (0, 40)]
    assert all(0 <= s < 2**32 for s in seeds)
    rho = np.full((4, 4), 0.2) + 0.8 * np.eye(4)
    p, _ = ref.orthant_genz(rho, 1e-6, max(seeds))
    assert 0.0 < p < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(command + ["--workload", "scan", "--seed", "1", "--seconds", "1",
                                     "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
