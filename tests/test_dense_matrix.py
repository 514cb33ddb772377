"""The shared dense-matrix routine against the three searches it replaced.

``sdhl_search``, ``sdhl_prime_search`` and ``check_dshl_witness`` each
built their own cones, slots and candidate pools before they shared
``witness._dense_matrix``; the old bodies are kept verbatim in
``oracles``.  On a grid of small boxes (d <= 3, H <= 5, level and full
domains, uncapped and capped) both must give the same result and spend
the same steps: every ``StepBudget`` either one creates ends at the same
``used`` count.  Some boxes end their last factor's nodes two levels
below the truncation, so the levels above it are empty and a pool can
leave a cone node without candidates.
"""

import itertools

import pytest

import oracles
from hl_lab import witness
from hl_lab.errors import CapExceededError
from hl_lab.search import Caps, StepBudget
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    check_dshl_witness,
    constant_coloring,
    level_parity_coloring,
    sdhl_prime_search,
    sdhl_search,
    seeded_hash_coloring,
)


def _measure(monkeypatch, module, run):
    """``run()``'s result (or cap) and the final ``used`` of each budget."""
    made = []

    class Budget(StepBudget):
        def __init__(self, cap):
            super().__init__(cap)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(module, "StepBudget", Budget)
        try:
            result = run()
        except CapExceededError as capped:
            result = ("capped", capped.cap, str(capped))
        except IndexError as bad:
            # a base whose cone is empty in some factor (a short box) gets
            # an empty matrix column, which both versions fail to read
            result = ("IndexError",)
    return result, [b.used for b in made]


def _same(monkeypatch, new, old):
    """Both agree; returns the steps the new version spent."""
    got = _measure(monkeypatch, witness, new)
    assert got == _measure(monkeypatch, oracles, old)
    return sum(got[1])


BOXES = list(itertools.product((1, 2, 3), (2, 3, 4, 5)))
CAPS = [None, Caps(max_steps=40)]


def _spaces(d, h, short):
    if not short:
        return (TreeSpace(2, h),) * d
    nodes = TreeSpace(2, h - 2).all_nodes()
    return (TreeSpace(2, h),) * (d - 1) + (TreeSpace(2, h, nodes=nodes),)


def _colorings(d, h, short, domain):
    spaces = _spaces(d, h, short)
    yield seeded_hash_coloring(spaces, d, 2, 7 * d + h, domain=domain)
    yield seeded_hash_coloring(spaces, d, 3, 11 * h + d, domain=domain)
    if domain == "level":
        yield level_parity_coloring(spaces, d)
    else:
        yield constant_coloring(spaces, d, 2, 1)


def _bases(coloring, caps):
    """First and last level sequence at every height with a level above.

    Uncapped, the root base of the d=3, H=5 box exhausts the default
    budget (about 1.5 s a run); the capped runs keep it.
    """
    height = coloring.spaces[0].height
    low = 1 if caps is None and (coloring.arity, height) == (3, 5) else 0
    for ht in range(low, height - 1):
        levels = [space.level(ht) for space in coloring.spaces]
        if all(levels):
            yield tuple(level[0] for level in levels)
            yield tuple(level[-1] for level in levels)


CASES = [(d, h, short, domain, caps) for d, h in BOXES
         for short in ((False, True) if h >= 4 else (False,))
         for domain in ("level", "full") for caps in CAPS]


def _case_id(case):
    d, h, short, domain, caps = case
    return (f"d{d}-h{h}{'-short' if short else ''}-{domain}"
            f"-{'cap' if caps else 'free'}")


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sdhl_search_matches_oracle(monkeypatch, case):
    d, h, short, domain, caps = case
    assert sum(_same(monkeypatch, lambda: sdhl_search(col, caps=caps),
                     lambda: oracles.sdhl_search(col, caps=caps))
               for col in _colorings(d, h, short, domain))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sdhl_prime_search_matches_oracle(monkeypatch, case):
    d, h, short, domain, caps = case
    assert sum(_same(monkeypatch, lambda: sdhl_prime_search(col, caps=caps),
                     lambda: oracles.sdhl_prime_search(col, caps=caps))
               for col in _colorings(d, h, short, domain))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_check_dshl_witness_matches_oracle(monkeypatch, case):
    d, h, short, domain, caps = case
    assert sum(_same(monkeypatch, lambda: check_dshl_witness(base, color, col, caps=caps),
                     lambda: oracles.check_dshl_witness(base, color, col, caps=caps))
               for col in _colorings(d, h, short, domain)
               for base, color in itertools.product(_bases(col, caps),
                                                    range(col.colors)))
