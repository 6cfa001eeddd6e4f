"""Fixtures shared by the test modules."""

import pytest

from latticepaths import formulas


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (x0, dx) of every ``formulas._ballot_sum`` call: (d - 1, -k) for
    ``_avoiding(k, d, ...)`` and (-d, k + 1) for ``_touching(k, d, ...)``.
    Every other module reaches the kernel through those two sums."""
    calls = []
    kernel = formulas._ballot_sum

    def spy(k, e, total, x0, dx, alternate, lead=None):
        calls.append((x0, dx))
        return kernel(k, e, total, x0, dx, alternate, lead)

    monkeypatch.setattr(formulas, "_ballot_sum", spy)
    return calls
