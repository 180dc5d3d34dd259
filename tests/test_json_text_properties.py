"""The CLI's JSON has the bytes of json.dumps(obj, indent=2).

cli._json_text spells a list of floats with orjson and writes again, with
json, the tokens that orjson spells otherwise: 0 < |v| < 1e-4, |v| >= 1e16
and the non-finite values.  Every float list must come out as json spells
it, whatever the version of orjson installed.  The floats are drawn three
ways: from random bit patterns, from every decade 1e-12 to 1e20 of both
signs, and from the edges of the re-spelled ranges.  The examples come from
the loaded Hypothesis profile (see conftest.py).
"""

import json
import struct

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow.cli import _json_text

# every double: NaN payloads, subnormals, +-0.0 and +-inf included
_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])

_DECADES = st.builds(lambda sign, mantissa, e: sign * mantissa * 10.0**e,
                     st.sampled_from([1.0, -1.0]), st.floats(1.0, 10.0, exclude_max=True), st.integers(-12, 20))

_EDGES = st.sampled_from([
    *(x for bound in (1e-4, 1e16) for x in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf))),
    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
    float("nan"), float("inf"), -float("inf"),
]).map(float)


def _written(values):
    """The list itself and the list two levels down, as check and equilibria write it."""
    for obj in (values, {"x_min": values, "segments": [values, {"pi": values}]}):
        assert _json_text(obj) == json.dumps(obj, indent=2)


@given(st.lists(_BITS, min_size=1, max_size=40))
def test_floats_from_bit_patterns(values):
    _written(values)


@given(st.lists(_DECADES, min_size=1, max_size=40))
def test_floats_from_every_decade(values):
    _written(values)


@given(st.lists(st.one_of(_EDGES, _DECADES), min_size=1, max_size=40))
def test_floats_at_the_edges_of_the_respelled_ranges(values):
    _written(values)
