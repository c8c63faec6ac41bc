"""The runtime reports through return values and exceptions, never
through ``assert``, which ``python -O`` strips: a check written as an
assert would accept anything there."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "distideal"


def test_no_assert_in_runtime():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [(path.name, node.lineno) for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"),
                                            str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


VERIFY_UNDER_O = """
from distideal.groebner import Ideal
from distideal.poly import QQ, ZZ, Polynomial, make_vars
v = make_vars(2)
for ring in (ZZ, QQ):
    x0, x1 = (Polynomial.variable(ring, v, name) for name in v)
    ideal = Ideal(ring, v, [x0 * x1 - 1, x0 * x0 - x1])
    ideal._basis = (x0,)
    print(ideal.verify())
"""


def test_verify_rejects_wrong_basis_under_optimize():
    # (x0,) is no basis of (x0*x1 - 1, x0^2 - x1): x0*x1 - 1 leaves -1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", VERIFY_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
