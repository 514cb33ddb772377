"""The finite-HL inner loop against the per-cell loop it replaced.

``_color_sampler`` must draw exactly the colors, and leave the generator
in exactly the state, of one ``randrange`` call per cell; ``_witness_test``
must give the old ``has_witness`` verdict on every coloring.  Together
they must leave every ``finite_hl_number`` report unchanged, which is
checked against runs with the old loop (kept in ``oracles``) swapped in.
"""

import itertools
import random

import pytest

import oracles
from hl_lab import witness
from hl_lab.witness import _color_sampler, _witness_groups, _witness_test, finite_hl_number


@pytest.mark.parametrize("r", [1, 2, 3, 7, 255, 256, 257])
@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sampler_draws_the_randrange_stream(r, seed):
    old, new = random.Random(seed), random.Random(seed)
    draw = _color_sampler(new, r)
    for size in (1, 2, 3, 20, 84, 1, 300, 5):
        assert tuple(draw(size)) == oracles.sample_colors(old, r, size)
        assert new.getstate() == old.getstate()
    assert new.random() == old.random()


def test_sampler_falls_back_to_randrange_above_one_byte():
    assert isinstance(_color_sampler(random.Random(0), 255)(4), bytes)
    assert isinstance(_color_sampler(random.Random(0), 256)(4), tuple)


@pytest.mark.parametrize("d,b,n", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 2, 4)])
def test_group_test_matches_old_on_random_colorings(d, b, n):
    domain, groups = _witness_groups(d, b, n)
    has_witness = _witness_test(groups)
    rng = random.Random(d * 100 + b * 10 + n)
    for r in (1, 2, 3):
        draw = _color_sampler(rng, r)
        for _ in range(300):
            colors = draw(len(domain))
            want = oracles.has_witness(groups, colors)
            assert has_witness(colors) == want
            assert has_witness(tuple(colors)) == want


@pytest.mark.parametrize("d,b,n,r", [(1, 3, 2, 2), (1, 4, 2, 3), (2, 2, 2, 3)])
def test_group_test_matches_old_on_every_coloring(d, b, n, r):
    domain, groups = _witness_groups(d, b, n)
    has_witness = _witness_test(groups)
    verdicts = set()
    for colors in itertools.product(range(r), repeat=len(domain)):
        want = oracles.has_witness(groups, colors)
        assert has_witness(colors) == want
        assert has_witness(bytes(colors)) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _report_with_old_loop(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(witness, "_color_sampler",
                      lambda rng, r: lambda size: oracles.sample_colors(rng, r, size))
        patch.setattr(witness, "_witness_test",
                      lambda groups: lambda colors: oracles.has_witness(groups, colors))
        return finite_hl_number(*args, **kwargs).to_json()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 3, 8])
def test_randomized_report_matches_old_loop(monkeypatch, d, r, seed):
    kwargs = dict(mode="randomized", samples=200, seed=seed, max_height=4)
    got = finite_hl_number(d, 2, r, **kwargs).to_json()
    assert got == _report_with_old_loop(monkeypatch, d, 2, r, **kwargs)


@pytest.mark.parametrize("b,r", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_exhaustive_report_matches_old_loop(monkeypatch, b, r):
    got = finite_hl_number(1, b, r).to_json()
    assert got == _report_with_old_loop(monkeypatch, 1, b, r)
    assert got["n"] is not None
