"""How far a dense stage-3 score may lie from ``maxsim`` over decompressed vectors.

``decompress`` rounds each component of a decoded token, the float64 sum of
its centroid and bucket value, to float32: a relative error of at most
2**-24. By Cauchy-Schwarz that moves the token's dot product with query token
``q`` by at most ``2**-24 * |q| * |x|``, and neither the max over tokens nor
the sum over query tokens widens the bound. Stage 3 adds the same terms in
float64 without that rounding.
"""

import numpy as np

# Float64 rounding of the sums themselves, far below the float32 term.
_FLOAT64_SLACK = 1e-12


def maxsim_tolerance(index, query) -> float:
    """Bound on |stage-3 score - maxsim(query, index.decompress_passage(i))| over all passages."""
    largest = max(
        np.linalg.norm(index.decompress_passage(i).astype(np.float64), axis=1).max() for i in range(len(index))
    )
    return 2.0**-24 * float(np.linalg.norm(query, axis=1).sum()) * largest + _FLOAT64_SLACK


def assert_ranking_within(got, expected, tolerance):
    """``got`` ranks ``expected``'s keys with each score within ``tolerance`` of its expected
    score, best first and ties by key. So two keys trade places only where their expected
    scores lie within ``2 * tolerance``, the most two such errors can close."""
    want = dict(expected)
    assert len(got) == len(want) == len(expected)
    assert {key for key, _ in got} == want.keys()
    for key, score in got:
        assert abs(score - want[key]) <= tolerance, (key, score, want[key], tolerance)
    assert got == sorted(got, key=lambda entry: (-entry[1], entry[0]))
