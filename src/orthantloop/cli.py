"""Command-line front end.

Configs are flat sectioned text files::

    [legs]
    mass_1 = 1.0
    mass_2 = 1.0
    [invariants]
    k2_1_2 = 1.0
    [powers]
    nu_1 = 1
    [dimension]
    n = 2

The dimension section may instead carry ``d = 6`` plus ``epsilon_order = 2``
for expansions.  An optional ``[momenta]`` section lists rows
``p_1 = E px py pz`` (entries may be complex, e.g. ``1.2j``) for the tensor
command.  Only the upper triangle of the invariants is needed; diagonal
entries are ignored with a warning.

Exit codes: 0 success, 2 parse/validation failure, 3 numeric failure,
4 divergent integral.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import npoint
from .dimshift import eps_expand, evaluate_any_dimension
from .errors import (
    DivergentIntegral,
    OrthantLoopError,
    ParseError,
    ValidationError,
)
from .kinematics import KinematicConfig, build_sigma, kallen, random_interior_config
from .matrixops import correlation_data
from .oracle import (
    MCSettings,
    check_momenta,
    feynman_oracle,
    momenta_for_config,
    momenta_to_invariants,
    orthant_mc,
    truncated_moment_mc,
)
from .quadrature import QuadratureSettings
from .tensor import reduce_rank2_5pt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_DIVERGENT = 4


@dataclass(frozen=True)
class RunRequest:
    """One dispatched invocation: command, parsed config, overrides already
    applied, output format and the numeric settings."""

    command: str
    config_path: str
    overrides: tuple[str, ...] = field(default_factory=tuple)
    output_format: str = "text"
    settings: QuadratureSettings = QuadratureSettings()
    mc: MCSettings = MCSettings()
    order: int | None = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def apply_overrides(config: KinematicConfig, overrides) -> KinematicConfig:
    """Patch existing config keys from key=value strings (mass_<i>, k2_<i>_<j>,
    nu_<i>, n); unknown keys are rejected."""
    if not overrides:
        return config
    masses = list(config.masses)
    inv = np.array(config.invariants)
    powers = list(config.powers)
    n = config.dimension
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override '{item}' is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        try:
            if key.startswith("mass_"):
                idx = int(key[5:]) - 1
                masses[idx] = float(value)
            elif key.startswith("k2_"):
                _, i, j = key.split("_")
                inv[int(i) - 1, int(j) - 1] = inv[int(j) - 1, int(i) - 1] = float(value)
            elif key.startswith("nu_"):
                powers[int(key[3:]) - 1] = int(value)
            elif key == "n":
                n = float(value)
            else:
                raise ValidationError(f"override references unknown key '{key}'")
        except (ValueError, IndexError) as exc:
            raise ValidationError(f"bad override '{item}': {exc}") from exc
    return KinematicConfig(masses=tuple(masses), invariants=inv,
                           powers=tuple(powers), dimension=n,
                           d=config.d, epsilon=config.epsilon)


def parse_config(path: str):
    """Read a sectioned kinematic config.  Returns (config, epsilon_order,
    momenta, warnings)."""
    section = None
    masses: dict[int, float] = {}
    k2: dict[tuple[int, int], float] = {}
    powers: dict[int, int] = {}
    momenta: dict[int, list[complex]] = {}
    dim: dict[str, float] = {}
    warnings: list[str] = []
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("legs", "invariants", "powers", "dimension", "momenta"):
                raise ParseError(f"line {ln}: unknown section [{section}]")
            continue
        if "=" not in line or section is None:
            raise ParseError(f"line {ln}: expected 'key = value' inside a section")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            if section == "legs":
                if not key.startswith("mass_"):
                    raise ParseError(f"line {ln}: expected mass_<i>, got {key}")
                masses[int(key[5:])] = float(value)
            elif section == "invariants":
                parts = key.split("_")
                if len(parts) != 3 or parts[0] != "k2":
                    raise ParseError(f"line {ln}: expected k2_<i>_<j>, got {key}")
                i, j = int(parts[1]), int(parts[2])
                if i == j:
                    warnings.append(f"line {ln}: diagonal invariant {key} ignored")
                    continue
                if (j, i) in k2 and k2[(j, i)] != float(value):
                    raise ValidationError(f"line {ln}: {key} conflicts with its mirror entry")
                k2[(i, j)] = float(value)
            elif section == "powers":
                if not key.startswith("nu_"):
                    raise ParseError(f"line {ln}: expected nu_<i>, got {key}")
                powers[int(key[3:])] = int(value)
            elif section == "dimension":
                if key not in ("n", "d", "epsilon_order"):
                    raise ParseError(f"line {ln}: unknown dimension key {key}")
                dim[key] = float(value)
            elif section == "momenta":
                if not key.startswith("p_"):
                    raise ParseError(f"line {ln}: expected p_<i>, got {key}")
                comps = [complex(tok) for tok in value.split()]
                if len(comps) != 4:
                    raise ParseError(f"line {ln}: momentum needs 4 components")
                momenta[int(key[2:])] = comps
        except (ValueError, IndexError) as exc:
            raise ParseError(f"line {ln}: {exc}") from exc
    if not masses:
        raise ValidationError("config has no [legs] masses")
    n_legs = max(masses)
    if sorted(masses) != list(range(1, n_legs + 1)):
        raise ValidationError("mass_<i> indices must be 1..N without gaps")
    mass_vec = tuple(masses[i] for i in range(1, n_legs + 1))
    if any(m <= 0 for m in mass_vec):
        bad = [i for i in range(1, n_legs + 1) if masses[i] <= 0]
        raise ValidationError(f"mass_{bad[0]} must be positive")
    inv = np.zeros((n_legs, n_legs))
    for (i, j), v in k2.items():
        if not (1 <= i <= n_legs and 1 <= j <= n_legs):
            raise ValidationError(f"invariant k2_{i}_{j} references a missing leg")
        inv[i - 1, j - 1] = v
        inv[j - 1, i - 1] = v
    power_vec = tuple(powers.get(i, 1) for i in range(1, n_legs + 1))
    mom = None
    if momenta:
        if sorted(momenta) != list(range(1, n_legs + 1)):
            raise ValidationError("p_<i> indices must be 1..N without gaps")
        mom = np.array([momenta[i] for i in range(1, n_legs + 1)], dtype=complex)
        if not k2:
            inv = np.real(momenta_to_invariants(mom))
            warnings.append("invariants derived from momenta")
    if "n" in dim and "d" in dim:
        raise ValidationError("give either n or d in [dimension], not both")
    eps_order = int(dim.get("epsilon_order", 2))
    if "d" in dim:
        config = KinematicConfig.from_d_epsilon(mass_vec, inv, power_vec, d=int(dim["d"]))
    elif "n" in dim:
        config = KinematicConfig(masses=mass_vec, invariants=inv, powers=power_vec,
                                 dimension=float(dim["n"]))
    else:
        raise ValidationError("missing [dimension] section with n or d")
    return config, eps_order, mom, warnings


def emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "jsonlines":
        for rec in records:
            stream.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    if fmt == "csv":
        if not records:
            return
        cols = []
        for rec in records:
            cols.extend(k for k in rec if k not in cols)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(cols)
        for rec in records:
            writer.writerow([rec.get(c, "") for c in cols])
        return
    for rec in records:
        stream.write("  ".join(f"{k}={v}" for k, v in rec.items()) + "\n")


def _convergence_fields(result) -> dict:
    return {"converged": bool(result.converged), "flags": list(result.flags)}


def _value_record(config, result) -> dict:
    return {
        "N": config.n_legs,
        "n": config.dimension,
        "nu": config.nu_total,
        "value_re": _fmt(np.real(result.value)),
        "value_im": _fmt(np.imag(result.value)),
        "abs_error": _fmt(result.abs_error),
        "method": result.method,
        **_convergence_fields(result),
    }


def cmd_compute(config, eps_order, mom, args, settings, mc) -> list[dict]:
    result = evaluate_any_dimension(config, settings)
    return [_value_record(config, result)]


def cmd_expand(config, eps_order, mom, args, settings, mc) -> list[dict]:
    order = args.order if args.order is not None else eps_order
    if config.d is None:
        raise ValidationError("expand needs [dimension] d = <int>")
    series = eps_expand(config, order=order, settings=settings)
    out = []
    for m, coeff in enumerate(series.coefficients):
        out.append({
            "d": series.d_base,
            "k_shift": series.k_shift,
            "order_index": m,
            "value_re": _fmt(np.real(coeff.value)),
            "value_im": _fmt(np.imag(coeff.value)),
            "abs_error": _fmt(coeff.abs_error),
            **_convergence_fields(coeff),
        })
    return out


def cmd_tensor(config, eps_order, mom, args, settings, mc) -> list[dict]:
    order = args.order if args.order is not None else eps_order
    # the rank-2 reduction is defined around four dimensions; the config
    # supplies kinematics, not the target dimension
    config = KinematicConfig.from_d_epsilon(config.masses, np.array(config.invariants),
                                            config.powers, d=4)
    if mom is None:
        mom = momenta_for_config(config)
    reduction = reduce_rank2_5pt(config, mom, order=order, settings=settings)
    out = []

    def series_record(name, series):
        rec = {"family": name}
        for m, coeff in enumerate(series.coefficients):
            rec[f"c{m}_re"] = _fmt(np.real(coeff.value))
            rec[f"c{m}_im"] = _fmt(np.imag(coeff.value))
            rec[f"c{m}_err"] = _fmt(coeff.abs_error)
        return rec

    out.append(series_record("g", reduction.g_coefficient))
    for k in range(5):
        out.append(series_record(f"diag_{k + 1}", reduction.diag_coefficients[k]))
    for (k, kp), series in sorted(reduction.offdiag_coefficients.items()):
        out.append(series_record(f"offdiag_{k + 1}_{kp + 1}", series))
    return out


def cmd_oracle(config, eps_order, mom, args, settings, mc) -> list[dict]:
    out = []
    fo = feynman_oracle(config, mc)
    rec = _value_record(config, fo)
    rec["oracle"] = "feynman"
    out.append(rec)
    try:
        tm = truncated_moment_mc(config, mc)
        rec = _value_record(config, tm)
        rec["oracle"] = "truncated_moment"
        out.append(rec)
    except OrthantLoopError:
        pass
    data = correlation_data(build_sigma(config))
    p, err = orthant_mc(data.rho, mc)
    out.append({"oracle": "orthant_mc", "probability": _fmt(p), "stderr": _fmt(err)})
    return out


def cmd_validate(config, eps_order, mom, args, settings, mc) -> list[dict]:
    """Small self-contained check set, sized to run in about a minute."""
    from .npoint import evaluate_unit, orthant_probability

    checks = []
    rng = np.random.default_rng(mc.seed)

    def record(name, passed, detail):
        checks.append({"check": name, "status": "pass" if passed else "FAIL",
                       "detail": detail})

    lam = kallen(1.0, 1.0, 4.0)
    record("kallen_threshold", lam == 0.0, f"kallen(1,1,4)={lam}")

    worst = 0.0
    for _ in range(10):
        cfg = random_interior_config(rng, 2, n=2)
        a = npoint.j2_2d(cfg).value
        b = feynman_oracle(cfg).value
        worst = max(worst, abs(a - b) / abs(b))
    record("two_point_vs_oracle", worst < 1e-6, f"max rel err {worst:.2e}")

    worst = 0.0
    for _ in range(5):
        cfg = random_interior_config(rng, 3, n=3)
        a = npoint.j3_3d(cfg).value
        b = feynman_oracle(cfg).value
        worst = max(worst, abs(a - b) / abs(b))
    record("three_point_vs_oracle", worst < 1e-6, f"max rel err {worst:.2e}")

    small_mc = MCSettings(samples=1_000_000, seed=mc.seed, batch=250_000)
    ok = True
    detail = []
    for nn in (2, 3, 4):
        cfg = random_interior_config(rng, nn, n=nn)
        rho = correlation_data(build_sigma(cfg)).rho
        p_formula, _ = orthant_probability(rho, settings)
        p_mc, err = orthant_mc(rho, small_mc)
        pull = abs(p_formula - p_mc) / err
        ok = ok and pull < 4.0
        detail.append(f"N={nn} pull={pull:.2f}")
    record("orthant_reconstruction", ok, "; ".join(detail))

    cfg = random_interior_config(rng, 3, n=5)
    from .dimshift import raise_dimension
    a = raise_dimension(cfg, settings).value
    b = feynman_oracle(cfg).value
    record("raise_dimension", abs(a - b) / abs(b) < 1e-5, f"rel {abs(a - b) / abs(b):.2e}")

    cfg = random_interior_config(rng, 4, n=3)
    from .dimshift import lower_dimension
    a = lower_dimension(cfg, settings).value
    b = evaluate_unit(build_sigma(cfg).entries, 3, settings).value
    record("lower_dimension", abs(a - b) / abs(b) < 1e-5, f"rel {abs(a - b) / abs(b):.2e}")
    return checks


COMMANDS = {
    "compute": cmd_compute,
    "validate": cmd_validate,
    "expand": cmd_expand,
    "tensor": cmd_tensor,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orthantloop",
                                     description="one-loop N-point scalar integrals")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--mc-samples", type=int, default=10_000_000)
        p.add_argument("--seed", type=int, default=MCSettings().seed)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--format", choices=("text", "csv", "jsonlines"), default="text")
        p.add_argument("--contour-c", type=float, default=None)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    return parser


def run(argv=None, stream=None) -> int:
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        settings = QuadratureSettings(rel_tol=args.tol, abs_tol=args.tol * 1e-4,
                                      contour_abscissa_c=args.contour_c)
        mc = MCSettings(samples=args.mc_samples, seed=args.seed,
                        batch=min(1_000_000, args.mc_samples))
        request = RunRequest(command=args.command, config_path=args.config,
                             overrides=tuple(args.overrides),
                             output_format=args.format, settings=settings, mc=mc,
                             order=args.order)
        config, eps_order, mom, warnings = parse_config(request.config_path)
        config = apply_overrides(config, request.overrides)
        if mom is not None and not request.overrides:
            check_momenta(config, mom)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        records = COMMANDS[request.command](config, eps_order, mom, args,
                                            request.settings, request.mc)
        emit(records, request.output_format, stream)
        if request.command == "validate" and any(r["status"] != "pass" for r in records):
            return EXIT_NUMERIC
        return EXIT_OK
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DivergentIntegral as exc:
        print(f"error: divergent integral: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except OrthantLoopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
