"""The dense-matrix searches against the references kept from before
they shared one matrix routine.

``sdhl_search`` and ``check_dshl_witness`` each built their own cones,
slots and candidate pools; the old bodies are kept verbatim in
``oracles``, with the per-choice kernel and the pointer-based assignment
search they called.  On a grid of small boxes (d <= 3, H <= 5, level and
full domains, uncapped and capped) ``sdhl_search`` must give its
reference's result, and, call by call, their assignment searches must
return the same result, the choices the library's forward-checking
search tries being a subsequence of the candidates the pointer search
asks about.  Forward checking takes other steps, so under a cap either
side may run out first: the calls before that are compared, and a capped
library run must have spent the cap and refused one more step.
``check_dshl_witness`` no longer searches: it reads the base's top-level
cone, and on every base of the grid its ``(valid, asym_ok)`` must be the
reference's.  In the "short" boxes the last factor is two levels lower
than the others, so every scan stops at its height though the other
factors go higher.  On the same grid, the free-level checker must accept
every witness of the reference free-level search
``oracles.sdhl_prime_search`` and every ``sdhl_search`` witness read at
its density level.
"""

import itertools

import pytest

import oracles
from hl_lab.errors import CapExceededError
from hl_lab import tailcone
from hl_lab.search import StepBudget, prefiltered_assignment
from hl_lab.trees import TreeSpace
from hl_lab.witness import (
    check_dshl_witness,
    check_somewhere_dense_witness,
    constant_coloring,
    level_parity_coloring,
    sdhl_search,
    seeded_hash_coloring,
)


def _result(run):
    """``run()``'s result, or its cap and message when it is capped."""
    try:
        return run()
    except CapExceededError as capped:
        return ("capped", capped.cap, str(capped))


def _same(monkeypatch, cap, new, old):
    """Both agree; returns the steps the new version spent.

    ``new`` spends from a budget made here for this one run and read
    afterwards.  The reference search makes its own budget from ``Caps``.
    """
    budget = StepBudget(cap) if cap else StepBudget()
    tries, asks = [], []
    with monkeypatch.context() as patch:
        patch.setattr(tailcone, "prefiltered_assignment",
                      oracles.watch_tries(prefiltered_assignment, tries))
        patch.setattr(oracles, "prefiltered_assignment",
                      oracles.watch_asks(oracles.prefiltered_assignment, asks))
        got = _result(lambda: new(budget))
        want = _result(lambda: old(oracles.Caps(cap) if cap else None))
    oracles.assert_same_calls(tries, asks)
    capped = [result for result in (got, want)
              if isinstance(result, tuple) and result[0] == "capped"]
    if not capped:
        assert got == want
    if got in capped:
        assert budget.used == cap + 1
    return budget.used


BOXES = list(itertools.product((1, 2, 3), (2, 3, 4, 5)))
CAPS = [None, 40]  # a cap, not a budget: each run makes its own


def _spaces(d, h, short):
    return (TreeSpace(2, h),) * (d - 1) + (TreeSpace(2, h - 2 if short else h),)


def _colorings(d, h, short, domain):
    spaces = _spaces(d, h, short)
    yield seeded_hash_coloring(spaces, 2, 7 * d + h, domain=domain)
    yield seeded_hash_coloring(spaces, 3, 11 * h + d, domain=domain)
    if domain == "level":
        yield level_parity_coloring(spaces)
    else:
        yield constant_coloring(spaces, 2, 1)


def _bases(coloring, caps):
    """First and last level sequence at every height with a level above.

    Uncapped, the root base of the d=3, H=5 box exhausts the default
    budget (about 1.5 s a run); the capped runs keep it.
    """
    height = min(space.height for space in coloring.spaces)
    low = 1 if caps is None and (coloring.arity, height) == (3, 5) else 0
    for ht in range(low, height - 1):
        levels = [space.level(ht) for space in coloring.spaces]
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
    assert sum(_same(monkeypatch, caps, lambda budget: sdhl_search(col, budget=budget),
                     lambda c: oracles.sdhl_search(col, caps=c))
               for col in _colorings(d, h, short, domain))


def _or_capped(run):
    try:
        return run()
    except CapExceededError:
        return "capped"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_sdhl_prime_search_matches_oracle(case):
    """The free-level checker against the reference free-level search.

    Every witness ``oracles.sdhl_prime_search`` finds passes
    ``check_somewhere_dense_witness``, and so does every ``sdhl_search``
    witness as returned.  Where ``sdhl_search`` finds a
    witness, the free-level search finds one too.
    """
    d, h, short, domain, caps = case
    found = 0
    for col in _colorings(d, h, short, domain):
        free = _or_capped(lambda: oracles.sdhl_prime_search(
            col, caps=oracles.Caps(caps) if caps else None))
        if free not in (None, "capped"):
            assert check_somewhere_dense_witness(free, col).valid
            found += 1
        w = _or_capped(lambda: sdhl_search(
            col, budget=StepBudget(caps) if caps else None))
        if w not in (None, "capped"):
            assert check_somewhere_dense_witness(w, col).valid
            if caps is None:
                assert free is not None
    assert found or caps is not None


def _reference_verdict(base, color, col, cap):
    """The reference's ``(valid, asym_ok)``: under ``cap`` where it settles
    there, else on its default budget."""
    try:
        res = oracles.check_dshl_witness(base, color, col,
                                         caps=oracles.Caps(cap) if cap else None)
    except CapExceededError:
        res = oracles.check_dshl_witness(base, color, col)
    return res.valid, res.asym_ok


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_check_dshl_witness_matches_oracle(case):
    # the checker takes no budget; the bases are the uncapped ones, since
    # the reference cannot settle the d=3, H=5 root base on its default budget
    d, h, short, domain, caps = case
    checked = 0
    for col in _colorings(d, h, short, domain):
        for base, color in itertools.product(_bases(col, None), range(col.colors)):
            res = check_dshl_witness(base, color, col)
            assert (res.valid, res.asym_ok) == _reference_verdict(base, color, col, caps)
            checked += 1
    assert checked
