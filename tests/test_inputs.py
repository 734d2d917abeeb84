"""The input contract on arbitrary JSON: the parser returns a finite operator
or raises SchemaError, and ``bisect`` ends every such file with exit 0, 1
or 2, never with a traceback."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import cliffspec as cs
from cliffspec.cli import main

# JSON scalars, with the non-finite floats and the integers beyond the range
# of a double that Python's json module reads and writes
scalars = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(),
                    st.sampled_from([10 ** 400, -10 ** 400]), st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=8)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def operator_objects(draw):
    """Operator-shaped JSON over n <= 3, m <= 2: mostly well formed, with some
    field, row, entry or coefficient replaced by an arbitrary JSON value."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))

    def either(valid, odds, other=json_values):
        # one value in ``odds`` is replaced
        return draw(other) if draw(st.integers(1, odds)) == 1 else valid

    entry = [[either([either(draw(finite), 32, scalars) for _ in range(1 << n)], 16)
              for _ in range(m)] for _ in range(m)]
    matrix = either([either(row, 16) for row in entry], 16)
    return {"n": either(n, 16), "m": either(m, 16), "matrix": matrix}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.one_of(operator_objects(), json_values))
def test_operator_from_dict_returns_finite_operator_or_schema_error(obj):
    try:
        T = cs.operator_from_dict(obj)
    except cs.SchemaError:
        return
    assert T.coeffs.shape == (T.m, T.m, 1 << T.n)
    assert np.all(np.isfinite(T.coeffs))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(operator_objects())
def test_bisect_exit_code_on_any_operator_file(obj):
    with tempfile.TemporaryDirectory() as tmp:
        op = os.path.join(tmp, "op.json")
        with open(op, "w") as fh:
            json.dump(obj, fh)
        code = main(["bisect", "--operator", op, "--omega", "0.3",
                     "--out", os.path.join(tmp, "r.json")])
    assert code in (0, 1, 2)
