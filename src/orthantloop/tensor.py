"""Rank-2 tensor reduction for the five-point function around four
dimensions.

The metric piece needs the scalar value two dimensions up; the momentum
bilinears need values four dimensions up with one propagator power raised to
three (weight 2) or two raised to two (weight 1).  Each of the sixteen
scalar families is an expansion in the dimensional regulator computed
through the uniform-mass-shift integral, with the raised powers handled by
first mass derivatives of the unit value (single-entry contour shifts on
matrices that are not positive definite) or the duplicated-column route.

Families are evaluated on a leg-relabelled copy of the configuration that
moves the raised legs to the front.  Relabelling is exact (values are
permutation invariant), and it makes the degeneracy of equivalent families
in symmetric configurations literal: identical inputs, identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dimshift import EpsSeries, eps_expand
from .errors import ValidationError
from .kinematics import KinematicConfig
from .oracle import check_momenta
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .util import parallel_map

DIAG_WEIGHT = 2.0      # nu_k * (nu_k + 1) at unit powers
OFFDIAG_WEIGHT = 1.0   # nu_k * nu_k'
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class TensorReduction5:
    g_coefficient: EpsSeries
    diag_coefficients: tuple[EpsSeries, ...]
    offdiag_coefficients: dict
    momenta: np.ndarray

    def __post_init__(self):
        orders = {self.g_coefficient.order}
        orders.update(s.order for s in self.diag_coefficients)
        orders.update(s.order for s in self.offdiag_coefficients.values())
        if len(orders) != 1:
            raise ValidationError("all coefficient series must share one order")

    def offdiag(self, k: int, kp: int) -> EpsSeries:
        return self.offdiag_coefficients[(min(k, kp), max(k, kp))]

    def assemble(self, mu: int, nu_idx: int, eps: float = 0.0) -> complex:
        """Contract the reduction into one tensor component at a numeric
        value of the regulator (a thin convenience for cross-checks)."""
        p = self.momenta
        out = -0.5 * METRIC[mu, nu_idx] * self.g_coefficient.value_at(eps)
        for k in range(5):
            out += DIAG_WEIGHT * p[k, mu] * p[k, nu_idx] * \
                self.diag_coefficients[k].value_at(eps)
        for (k, kp), series in self.offdiag_coefficients.items():
            out += OFFDIAG_WEIGHT * (p[k, mu] * p[kp, nu_idx] + p[kp, mu] * p[k, nu_idx]) \
                * series.value_at(eps)
        return out


def _permuted_config(config: KinematicConfig, order: tuple[int, ...],
                     powers: tuple[int, ...], d: int) -> KinematicConfig:
    masses = tuple(config.masses[i] for i in order)
    inv = np.asarray(config.invariants)[np.ix_(order, order)]
    return KinematicConfig.from_d_epsilon(masses, inv, powers, d=d)


def reduce_rank2_5pt(config: KinematicConfig, momenta: np.ndarray, order: int = 2,
                     settings: QuadratureSettings = DEFAULT_SETTINGS,
                     route: str = "contour") -> TensorReduction5:
    """All sixteen scalar coefficient families of the rank-2 five-point
    tensor at dimension 4 - 2*eps, as series of the stated ``order``.

    ``route`` picks how raised powers are evaluated on the shifted matrices:
    single/pair shifts (default; mass derivatives) or the duplicated-column
    assembly; the two agree and the tests compare them.
    """
    if config.n_legs != 5:
        raise ValidationError("rank-2 reduction implemented for five legs")
    if any(p != 1 for p in config.powers):
        raise ValidationError("reduction starts from unit powers")
    if config.d is None or config.d != 4:
        raise ValidationError("build the config from (d=4, epsilon) for this reduction")
    momenta = np.asarray(momenta)
    if momenta.shape != (5, 4):
        raise ValidationError("need five 4-vectors")
    check_momenta(config, momenta)

    g_cfg = KinematicConfig.from_d_epsilon(config.masses, np.array(config.invariants),
                                           (1, 1, 1, 1, 1), d=6)
    g_series = eps_expand(g_cfg, order=order, settings=settings)

    def diag_family(k: int) -> EpsSeries:
        perm = (k,) + tuple(i for i in range(5) if i != k)
        cfg = _permuted_config(config, perm, (3, 1, 1, 1, 1), d=8)
        return eps_expand(cfg, order=order, settings=settings, route=route)

    def offdiag_family(pair) -> EpsSeries:
        k, kp = pair
        perm = (k, kp) + tuple(i for i in range(5) if i not in (k, kp))
        cfg = _permuted_config(config, perm, (2, 2, 1, 1, 1), d=8)
        return eps_expand(cfg, order=order, settings=settings, route=route)

    diag = tuple(parallel_map(diag_family, range(5)))
    pairs = [(k, kp) for k in range(5) for kp in range(k + 1, 5)]
    off_list = parallel_map(offdiag_family, pairs)
    offdiag = {pair: series for pair, series in zip(pairs, off_list)}
    return TensorReduction5(g_coefficient=g_series, diag_coefficients=diag,
                            offdiag_coefficients=offdiag, momenta=momenta)
