import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vsmeval import floattext
from vsmeval.floattext import BLOCK

_EDGES = [
    5e-324, 1e-323, 1.5e-323,  # below 3 * 2**-1074: digits from 10 t
    2.2250738585072014e-308, 2.225073858507201e-308,  # normal | subnormal
    1.7976931348623157e308,
    1e16, 9999999999999998.0,  # the fixed | exponent switch above
    0.0001, 9.999999999999999e-05,  # and below
    1e22, 1e23, 2.0 ** 53, 0.0, -0.0,
]


def _reprs(values):
    return [repr(float(v)) for v in values]


def _finite_from_bits(patterns):
    values = np.array(patterns, np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                max_size=40))
@example(_EDGES)
@example([-v for v in _EDGES])
def test_texts_are_repr_property(values):
    assert floattext.texts(np.array(values, np.float64)) == _reprs(values)


@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
@example([1, 2, 3, 0x0010000000000000, 0x000FFFFFFFFFFFFF,
          0x7FEFFFFFFFFFFFFF, 1 << 63, 0x8000000000000001])
def test_texts_of_raw_bit_patterns_are_repr_property(patterns):
    values = _finite_from_bits(patterns)
    assert floattext.texts(values) == _reprs(values)


def test_powers_of_ten_and_binade_edges_with_their_neighbours():
    centres = [10.0 ** e for e in range(-323, 309)]
    centres += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values = np.array(centres)
    values = np.concatenate([np.nextafter(values, 0), values,
                             np.nextafter(values, np.inf)])
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    assert floattext.texts(values) == _reprs(values)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_one_column_across_block_boundaries(n):
    # normals, zeros of both signs and subnormals share every block
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    values[::7] = 0.0
    values[3::11] = -0.0
    values[5::13] = 5e-324 * rng.integers(1, 2 ** 40, len(values[5::13]))
    blocks = list(floattext.lines(values[:, None]))
    assert len(blocks) == -(-n // BLOCK)
    assert "\n".join(blocks) == "\n".join(_reprs(values))


@pytest.mark.parametrize("shape", [
    (3, BLOCK - 1), (2, BLOCK + 1),  # one row a block
    (BLOCK // 100 - 1, 100), (BLOCK // 100, 100), (BLOCK // 100 + 1, 100),
    (5, 0), (1, 1),
])
def test_rows_are_cells_joined_by_spaces(shape):
    matrix = np.random.default_rng(0).standard_normal(shape)
    want = [" ".join(_reprs(row)) for row in matrix]
    assert "\n".join(floattext.lines(matrix)).split("\n") == want


def test_no_row_no_text():
    assert list(floattext.lines(np.zeros((0, 4)))) == []


def test_a_float32_cell_is_the_text_of_its_double():
    values = np.array([0.1, 1e-40, 3.4e38], np.float32)
    assert floattext.texts(values) == _reprs(values.tolist())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_value_that_is_not_finite_is_refused(bad):
    with pytest.raises(ValueError):
        list(floattext.lines(np.array([[1.0, bad]])))
