import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthantloop.cli import EXIT_DIVERGENT, EXIT_OK, EXIT_PARSE, parse_config, run
from orthantloop.errors import ParseError, ValidationError

TWO_POINT = """
[legs]
mass_1 = 1.0
mass_2 = 1.0
[invariants]
k2_1_2 = 1.0
[powers]
nu_1 = 1
nu_2 = 1
[dimension]
n = 2
"""


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_two_point(tmp_path):
    cfg, order, mom, warnings = parse_config(write(tmp_path, TWO_POINT))
    assert cfg.n_legs == 2
    assert cfg.dimension == 2.0
    assert cfg.invariants[0, 1] == 1.0
    assert mom is None and not warnings


def test_parse_negative_mass_names_field(tmp_path):
    bad = TWO_POINT.replace("mass_2 = 1.0", "mass_2 = -1.0")
    with pytest.raises(ValidationError, match="mass_2"):
        parse_config(write(tmp_path, bad))


def test_parse_upper_triangle_and_diagonal_warning(tmp_path):
    text = TWO_POINT.replace("k2_1_2 = 1.0", "k2_1_2 = 1.0\nk2_1_1 = 5.0")
    cfg, _, _, warnings = parse_config(write(tmp_path, text))
    assert cfg.invariants[1, 0] == 1.0
    assert any("diagonal" in w for w in warnings)


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="line 2"):
        parse_config(write(tmp_path, "\nbogus line\n"))
    with pytest.raises(ValidationError, match="dimension"):
        parse_config(write(tmp_path, "[legs]\nmass_1 = 1.0\n"))


def test_compute_two_point(tmp_path, capsys):
    path = write(tmp_path, TWO_POINT)
    stream = io.StringIO()
    code = run(["compute", "--config", path, "--format", "jsonlines"], stream)
    assert code == EXIT_OK
    rec = json.loads(stream.getvalue())
    assert float(rec["value_re"]) == pytest.approx(2 * math.pi / (3 * math.sqrt(3)),
                                                   rel=1e-10)
    assert float(rec["value_re"]) == pytest.approx(1.209200, abs=1e-6)
    assert rec["method"] == "closed_form"


def test_compute_divergent_exit_code(tmp_path):
    text = TWO_POINT.replace("n = 2", "n = 4")
    code = run(["compute", "--config", write(tmp_path, text), "--format", "text"],
               io.StringIO())
    assert code == EXIT_DIVERGENT


def test_parse_failure_exit_code(tmp_path):
    code = run(["compute", "--config", write(tmp_path, "junk"), "--format", "text"],
               io.StringIO())
    assert code == EXIT_PARSE


def test_expand_emits_order_plus_one_records(tmp_path):
    text = """
[legs]
mass_1 = 1.0
mass_2 = 1.1
mass_3 = 0.9
[invariants]
k2_1_2 = 0.4
k2_1_3 = 0.3
k2_2_3 = 0.5
[dimension]
d = 4
epsilon_order = 2
"""
    stream = io.StringIO()
    code = run(["expand", "--config", write(tmp_path, text), "--format", "jsonlines",
                "--tol", "1e-6"], stream)
    assert code == EXIT_OK
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(records) == 3
    assert [r["order_index"] for r in records] == [0, 1, 2]
    assert all(r["converged"] is True and r["flags"] == [] for r in records)


def test_oracle_determinism_bit_identical(tmp_path):
    text = """
[legs]
mass_1 = 1.0
mass_2 = 1.0
mass_3 = 1.0
mass_4 = 1.0
[invariants]
k2_1_2 = 1.0
k2_1_3 = 1.1
k2_1_4 = 0.9
k2_2_3 = 1.0
k2_2_4 = 1.2
k2_3_4 = 0.8
[dimension]
n = 4
"""
    path = write(tmp_path, text)
    outputs = []
    for _ in range(2):
        stream = io.StringIO()
        code = run(["oracle", "--config", path, "--format", "jsonlines",
                    "--mc-samples", "200000", "--seed", "11"], stream)
        assert code == EXIT_OK
        outputs.append(stream.getvalue())
    assert outputs[0] == outputs[1]


def test_jsonlines_round_trip(tmp_path):
    stream = io.StringIO()
    run(["compute", "--config", write(tmp_path, TWO_POINT), "--format", "jsonlines"],
        stream)
    rec = json.loads(stream.getvalue())
    again = json.loads(json.dumps(rec))
    assert again == rec
    assert float(again["value_re"]) == float(rec["value_re"])


def test_csv_output_columns(tmp_path):
    stream = io.StringIO()
    run(["compute", "--config", write(tmp_path, TWO_POINT), "--format", "csv"], stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "N,n,nu,value_re,value_im,abs_error,method,converged,flags"
    assert len(lines) == 2


def test_records_carry_convergence(tmp_path, monkeypatch):
    import orthantloop.cli as cli
    from orthantloop.quadrature import IntegralValue

    rough = IntegralValue(value=1.5, abs_error=0.1, converged=False,
                          flags=("inner_non_converged",))
    monkeypatch.setattr(cli, "evaluate_any_dimension", lambda config, settings: rough)
    path = write(tmp_path, TWO_POINT)
    stream = io.StringIO()
    assert run(["compute", "--config", path, "--format", "jsonlines"], stream) == EXIT_OK
    rec = json.loads(stream.getvalue())
    assert rec["converged"] is False
    assert rec["flags"] == ["inner_non_converged"]
    stream = io.StringIO()
    assert run(["compute", "--config", path, "--format", "text"], stream) == EXIT_OK
    assert "converged=False" in stream.getvalue()
    assert "inner_non_converged" in stream.getvalue()


def test_momenta_section_derives_invariants(tmp_path):
    text = """
[legs]
mass_1 = 1.0
mass_2 = 1.0
[dimension]
n = 2
[momenta]
p_1 = 0 0 0 0
p_2 = 1 0 0 0
"""
    cfg, _, mom, warnings = parse_config(write(tmp_path, text))
    assert mom is not None
    assert cfg.invariants[0, 1] == pytest.approx(1.0)
    assert any("derived" in w for w in warnings)


@pytest.mark.slow
def test_validate_command_passes(tmp_path):
    stream = io.StringIO()
    code = run(["validate", "--config", write(tmp_path, TWO_POINT),
                "--format", "text", "--mc-samples", "1000000"], stream)
    assert code == EXIT_OK
    out = stream.getvalue()
    assert "FAIL" not in out
    assert out.count("pass") >= 6


def test_thread_cap_preserves_results(tmp_path, monkeypatch):
    import numpy as np
    from orthantloop.kinematics import build_sigma, random_interior_config
    from orthantloop.matrixops import correlation_data
    from orthantloop.npoint import orthant_probability
    from orthantloop.util import thread_count

    rng = np.random.default_rng(5)
    rho = correlation_data(build_sigma(random_interior_config(rng, 6))).rho
    monkeypatch.delenv("ORTHANTLOOP_THREADS", raising=False)
    base, _ = orthant_probability(rho)
    assert thread_count() == 1
    monkeypatch.setenv("ORTHANTLOOP_THREADS", "3")
    assert thread_count() == 3
    threaded, _ = orthant_probability(rho)
    assert threaded == base


def test_override_flag(tmp_path):
    path = write(tmp_path, TWO_POINT)
    stream = io.StringIO()
    code = run(["compute", "--config", path, "--format", "jsonlines",
                "--set", "mass_2=2.0"], stream)
    assert code == EXIT_OK
    rec = json.loads(stream.getvalue())
    # m = (1, 2), k2 = 1 sits on the pseudothreshold: value 1/(m1 m2)
    assert float(rec["value_re"]) == pytest.approx(0.5, rel=1e-10)
    code = run(["compute", "--config", path, "--set", "bogus=1"], io.StringIO())
    assert code == EXIT_PARSE


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside the oracle routine that needs it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import orthantloop.cli, sys; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
