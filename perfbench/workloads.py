"""Seeded inputs and the fixed operation list of each workload.

Kinematics come from a pool whose shapes (mass vectors and Gram factors) a
fixed master seed draws once; the run seed then jitters every shape by a few
percent and relabels its legs.  The work per round therefore stays nearly
the same from seed to seed, while every seed gives new input values.  The
construction is the one ``orthantloop.random_interior_config`` uses: cosines
are the correlations of a Gram matrix plus a ridge of ``N / corr_scale``.

Every call into the program goes through a module attribute looked up at
call time (``npoint.evaluate_unit``), so the tracer's replacements see it.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from orthantloop import cli, dimshift, npoint
from orthantloop.kinematics import KinematicConfig
from orthantloop.quadrature import QuadratureSettings

ROOT = Path(__file__).resolve().parent.parent
MASTER_SEED = 20160316
JITTER = 0.05
CORR_SCALE = 20.0          # "strongly correlated" kinematics
SCAN_SHAPES_PER_KIND = 2   # pool shapes per (N, kind) in ``scan``
EPS_SETTINGS = QuadratureSettings(rel_tol=1e-5, abs_tol=1e-9)   # as ``--tol 1e-5``


@dataclass(frozen=True)
class Kinematics:
    masses: np.ndarray
    k2: np.ndarray

    @property
    def n_legs(self) -> int:
        return len(self.masses)

    def sigma(self) -> np.ndarray:
        """Mass matrix from masses and invariants, built in numpy."""
        m2 = self.masses ** 2
        return 0.5 * (m2[:, None] + m2[None, :] - self.k2)

    def relabel(self, perm) -> "Kinematics":
        perm = np.asarray(perm)
        return Kinematics(self.masses[perm], self.k2[np.ix_(perm, perm)])

    def config(self, dimension=None, powers=None, d=None) -> KinematicConfig:
        powers = tuple(powers or (1,) * self.n_legs)
        if d is not None:
            return KinematicConfig.from_d_epsilon(tuple(self.masses), self.k2.copy(),
                                                  powers, d=d)
        return KinematicConfig(masses=tuple(self.masses), invariants=self.k2.copy(),
                               powers=powers, dimension=float(dimension))

    def overrides(self) -> list[str]:
        """``--set`` arguments that load these kinematics into a CLI config."""
        out = []
        for i, m in enumerate(self.masses):
            out += ["--set", f"mass_{i + 1}={float(m)!r}"]
        for i in range(self.n_legs):
            for j in range(i + 1, self.n_legs):
                out += ["--set", f"k2_{i + 1}_{j + 1}={float(self.k2[i, j])!r}"]
        return out


def _shape(master: np.random.Generator, n_legs: int):
    return master.uniform(0.6, 1.6, n_legs), master.normal(size=(n_legs, n_legs))


def _jittered(shape, rng: np.random.Generator, corr_scale: float = 1.0) -> Kinematics:
    m0, a0 = shape
    n = len(m0)
    m = m0 * (1.0 + JITTER * rng.uniform(-1.0, 1.0, n))
    a = a0 + JITTER * rng.normal(size=a0.shape)
    g = a @ a.T + n * np.eye(n) / corr_scale
    dd = np.sqrt(np.diag(g))
    c = g / np.outer(dd, dd)
    k2 = m[:, None] ** 2 + m[None, :] ** 2 - 2.0 * np.outer(m, m) * c
    np.fill_diagonal(k2, 0.0)
    return Kinematics(m, k2).relabel(rng.permutation(n))


def read_config(path: Path) -> Kinematics:
    """Masses and invariants of a flat sectioned config file."""
    masses, k2 = {}, {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" not in line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key.startswith("mass_"):
            masses[int(key[5:])] = float(value)
        elif key.startswith("k2_"):
            _, i, j = key.split("_")
            k2[int(i), int(j)] = float(value)
    n = len(masses)
    inv = np.zeros((n, n))
    for (i, j), v in k2.items():
        inv[i - 1, j - 1] = inv[j - 1, i - 1] = v
    return Kinematics(np.array([masses[i + 1] for i in range(n)]), inv)


# ---------------------------------------------------------------------------
# Operations and their outcomes.

@dataclass
class Outcome:
    """What one operation returned, reduced to comparable numbers."""

    values: tuple = ()
    errors: tuple = ()
    converged: bool = True
    error: str | None = None     # exception text when the call raised
    raw: str = ""                # CLI output, compared verbatim

    @property
    def ok(self) -> bool:
        return self.error is None and self.converged


@dataclass
class Op:
    name: str
    kind: str
    call: Callable[[], object]
    data: dict = field(default_factory=dict)

    def run(self) -> Outcome:
        out = self.call()
        if isinstance(out, Outcome):
            return out
        if hasattr(out, "coefficients"):       # an EpsSeries
            cs = out.coefficients
            return Outcome(tuple(complex(c.value) for c in cs),
                           tuple(float(c.abs_error) for c in cs),
                           all(bool(c.converged) for c in cs))
        return Outcome((complex(out.value),), (float(out.abs_error),), bool(out.converged))


def _cli(argv) -> Outcome:
    buf = io.StringIO()
    code = cli.run(argv, stream=buf)
    text = buf.getvalue()
    if code != 0:
        return Outcome(converged=False, error=f"exit code {code}", raw=text)
    recs = [json.loads(line) for line in text.splitlines() if line.strip()]
    return Outcome(tuple(complex(float(r["value_re"]), float(r["value_im"])) for r in recs),
                   tuple(float(r["abs_error"]) for r in recs), True, raw=text)


# ---------------------------------------------------------------------------
# Workload builders.

@dataclass
class Workload:
    name: str
    ops: list
    warmup: Callable[[], object]


def _build_scan(seed: int) -> Workload:
    master = np.random.default_rng(MASTER_SEED)
    rng = np.random.default_rng([seed, 1])
    ops = []
    for N in (4, 5, 6, 7):
        for kind, cs in (("interior", 1.0), ("correlated", CORR_SCALE)):
            for k in range(SCAN_SHAPES_PER_KIND):
                kin = _jittered(_shape(master, N), rng, cs)
                sigma = kin.sigma()
                for n in (N, N - 1):
                    ops.append(Op(f"unit N={N} n={n} {kind}#{k}", "unit",
                                  lambda s=sigma, n=n: npoint.evaluate_unit(s, n),
                                  {"kin": kin, "n": n, "sigma": sigma, "group": kind}))
    dup4 = _jittered(_shape(master, 4), rng)
    dup5 = _jittered(_shape(master, 5), rng)
    for kin, powers in ((dup4, (2, 1, 1, 1)), (dup4, (3, 1, 1, 1)), (dup4, (2, 2, 1, 1)),
                        (dup5, (2, 1, 1, 1, 1))):
        cfg = kin.config(dimension=sum(powers), powers=powers)
        ops.append(Op(f"duplicate {powers}", "duplicate",
                      lambda c=cfg: dimshift.raise_power_duplicate(c),
                      {"kin": kin, "config": cfg}))
    for fname in ("hexagon_6d.cfg", "two_point.cfg"):
        base = read_config(ROOT / "configs" / fname)
        kin = base.relabel(rng.permutation(base.n_legs))
        argv = ["compute", "--config", str(ROOT / "configs" / fname),
                "--format", "jsonlines"] + kin.overrides()
        ops.append(Op(f"cli compute {fname}", "cli_compute",
                      lambda a=argv: _cli(a), {"kin": kin, "n": kin.n_legs}))
    first = ops[0].data["sigma"]
    return Workload("scan", ops, lambda: npoint.evaluate_unit(first, 4))


def _build_shift(seed: int) -> Workload:
    master = np.random.default_rng(MASTER_SEED + 1)
    rng = np.random.default_rng([seed, 2])
    ops = []
    for N, n, count in ((5, 6, 2), (4, 3, 2), (6, 4, 1)):
        for k in range(count):
            kin = _jittered(_shape(master, N), rng)
            cfg = kin.config(dimension=n)
            if n > N:
                call = lambda c=cfg: dimshift.raise_dimension(c)
                kind = "raise"
            else:
                call = lambda c=cfg: dimshift.lower_dimension(c)
                kind = "lower"
            ops.append(Op(f"{kind} N={N} n={n} #{k}", kind, call,
                          {"kin": kin, "n": n, "powers": (1,) * N}))
    warm = ops[-1].data["kin"].sigma()
    return Workload("shift", ops, lambda: npoint.evaluate_unit(warm, 6))


def _build_epsilon(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    path = ROOT / "configs" / "pentagon_d6.cfg"
    base = read_config(path)
    perm = rng.permutation(base.n_legs)
    kin = base.relabel(perm)
    argv = ["expand", "--config", str(path), "--order", "2", "--tol", "1e-5",
            "--format", "jsonlines"] + kin.overrides()
    ops = [Op("cli expand d=6 order=2", "cli_expand", lambda: _cli(argv),
              {"kin": kin, "d": 6})]
    # The pair-shift family (2,2,1,1,1) takes 13-15 s per call, too long for
    # the repeated rounds a steady timing needs; see the README.
    powers = (3, 1, 1, 1, 1)
    relabelled = tuple(powers[i] for i in perm)
    cfg = kin.config(d=8, powers=relabelled)
    ops.append(Op(f"eps_expand d=8 {powers}", "eps",
                  lambda: dimshift.eps_expand(cfg, order=0, settings=EPS_SETTINGS),
                  {"kin": kin, "d": 8, "powers": relabelled}))
    warm = kin.sigma()
    return Workload("epsilon", ops, lambda: npoint.evaluate_unit(warm, 5))


BUILDERS = {"scan": _build_scan, "shift": _build_shift, "epsilon": _build_epsilon}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
