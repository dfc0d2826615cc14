"""Correctness checks of one round's outcomes, run after the timed rounds.

Where a reference is slow (Genz at tight tolerance), a seeded subset of the
operations is checked; every other check covers every operation.
"""

from __future__ import annotations

import numpy as np

from orthantloop import dimshift, npoint

import references as ref

GENZ_TIGHT = 1e-8     # interior n = N values, one per N
GENZ_LOOSE = 1e-7     # correlated and n = N - 1 values, one each
SERIES_EPS = (0.01, -0.01)


def check_unit(op, out, abseps: float, seed: int):
    """n = N or N - 1 value against the paper's prefactors times independent
    orthant probabilities."""
    value, err = ref.unit_reference(op.data["kin"].sigma(), op.data["n"], abseps, seed)
    return ref.within(out.values[0], value,
                      out.errors[0] + err + ref.ROUNDING * abs(value))


def check_relabel(op, out, seed: int):
    """The same value after a random relabelling of the legs."""
    sigma = op.data["sigma"]
    perm = np.random.default_rng(seed).permutation(sigma.shape[0])
    other = npoint.evaluate_unit(sigma[np.ix_(perm, perm)], op.data["n"])
    scale = abs(out.values[0]) + abs(other.value)
    return ref.within(out.values[0], other.value,
                      out.errors[0] + other.abs_error + ref.ROUNDING * scale)


def check_duplicate(op, out):
    """Duplicated-column value against the single- or pair-shift contour."""
    cfg = op.data["config"]
    raised = [i for i, p in enumerate(cfg.powers) if p > 1]
    if len(raised) == 1:
        other = dimshift.raise_power_single(cfg, raised[0])
    else:
        other = dimshift.raise_power_pair(cfg, tuple(raised))
    return ref.within(out.values[0], other.value, out.errors[0] + other.abs_error)


def check_simplex(op, out, n: float, seed: int):
    """Value (or c0) against Dirichlet sampling of the Feynman-parameter
    integral, within a fixed number of standard errors."""
    value, stderr = ref.simplex_mc(op.data["kin"].sigma(), op.data["powers"], n, seed)
    return ref.within(out.values[0], value, out.errors[0] + ref.MC_SIGMAS * stderr)


def check_series(op, out):
    """c0 + c1 eps + c2 eps**2 against the half-line route at n = d - 2 eps.
    The truncation bound takes the next coefficient as large as the largest
    known one."""
    coeffs = np.asarray(out.values)
    errs = np.asarray(out.errors)
    results = []
    for eps in SERIES_EPS:
        series = complex(np.sum(coeffs * eps ** np.arange(len(coeffs))))
        other = dimshift.raise_dimension(op.data["kin"].config(dimension=op.data["d"] - 2 * eps))
        bound = float(np.sum(errs * abs(eps) ** np.arange(len(coeffs)))) + other.abs_error \
            + abs(eps) ** len(coeffs) * float(np.max(np.abs(coeffs)))
        results.append(ref.within(series, other.value, bound, f"eps={eps}: "))
    return results


def _scan_plan(ops, seed: int) -> dict[int, float]:
    """Operation index -> Genz tolerance for the seeded subset of ``scan``."""
    rng = np.random.default_rng([seed, 7])
    units = [(i, op) for i, op in enumerate(ops) if op.kind == "unit"]
    plan = {}
    for N in (4, 5, 6, 7):
        pick = [i for i, op in units if op.data["kin"].n_legs == N
                and op.data["n"] == N and op.data["group"] == "interior"]
        plan[int(rng.choice(pick))] = GENZ_TIGHT
    correlated = [i for i, op in units if op.data["group"] == "correlated"
                  and op.data["n"] == op.data["kin"].n_legs]
    plan[int(rng.choice(correlated))] = GENZ_LOOSE
    below = [i for i, op in units if op.data["n"] == op.data["kin"].n_legs - 1]
    plan[int(rng.choice([i for i in below if ops[i].data["n"] >= 4]))] = GENZ_LOOSE
    for i in below:
        if ops[i].data["n"] == 3:                 # exact arcsine reference
            plan[i] = GENZ_LOOSE
    return plan


def run_checks(workload, outcomes, seed: int) -> list[list[ref.Verdict]]:
    """Check results per operation; an operation that raised gets none."""
    ops = workload.ops
    plan = _scan_plan(ops, seed) if workload.name == "scan" else {}
    found: list[list[ref.Verdict]] = []
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        res = []
        if out.error is None:
            try:
                res = _checks_of(op, out, plan.get(i), ref.subseed(seed, i))
            except Exception as exc:     # a reference that cannot be computed fails the check
                res = [ref.Verdict(False, float("nan"), float("nan"),
                                   f"reference raised {type(exc).__name__}: {exc}")]
        found.append(res)
    return found


def _checks_of(op, out, abseps, seed: int) -> list[ref.Verdict]:
    if op.kind == "unit":
        res = [check_relabel(op, out, seed)]
        if abseps is not None:
            res.append(check_unit(op, out, abseps, seed))
        return res
    if op.kind == "duplicate":
        return [check_duplicate(op, out)]
    if op.kind == "cli_compute":
        return [check_unit(op, out, GENZ_TIGHT, seed)]
    if op.kind == "lower" and op.data["n"] == op.data["kin"].n_legs - 1:
        return [check_unit(op, out, GENZ_LOOSE, seed)]
    if op.kind in ("raise", "lower"):
        return [check_simplex(op, out, op.data["n"], seed)]
    if op.kind == "eps":
        return [check_simplex(op, out, op.data["d"], seed)]
    return check_series(op, out)          # cli_expand
