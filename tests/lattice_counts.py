"""Left counts and single-line marginals of the discrete hexagon, one value
at a time, from the transfer in :mod:`beadproc.hexagon`.

The package checks these identities a whole hexagon at a time
(``checks.lattice_identities``, one transfer per call); these per-value
forms keep the tests' tables readable.  Both check the enumeration budget
first, as ``enumerate_configurations`` does.
"""

from __future__ import annotations

from typing import Sequence

from beadproc.hexagon import DiscreteHexagon, _check_budget, _transfer, _validate_line
from beadproc.model import _index


def left_count(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> int:
    """Number of fillings of lines ``1..t-1`` compatible with line ``t = xs``.

    Defined on the up-ramp ``t <= p`` (where ``xs`` has length ``t``); the
    closed form ``left_count_closed_form`` must match this exactly.
    """
    _check_budget(hexa)
    t = _index(t, "line t", 1, min(hexa.p, hexa.q))
    xs = _validate_line(hexa, t, xs)
    return _transfer(hexa)[0][t].get(xs, 0)


def bruteforce_marginal(hexa: DiscreteHexagon, t: int, xs: Sequence[int]) -> int:
    """Exact count of configurations whose line ``t`` equals ``xs``."""
    _check_budget(hexa)
    xs = _validate_line(hexa, t, xs)
    forward, backward = _transfer(hexa)
    return forward[t].get(xs, 0) * backward[t].get(xs, 0)
