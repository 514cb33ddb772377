"""Document generator for the hl-lab benchmark.

A workload is a fixed list of document templates.  The workload seed
picks one variant of every template; a variant fixes the coloring seed
(drawn from a vetted pool) or the randomly built certificate input.
Box shapes never depend on the seed, so passes on different seeds do
comparable work.  Every answer the seed code gives on every variant is
frozen in ``expected.json`` (see ``freeze.py``).

Run ``python3 perfbench/workloads.py staged --seed 3`` to print the
documents of one workload with the reason each one is there.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass

VARIANTS = 6

# Coloring seeds per seeded template, vetted by ``freeze.py --vet``:
# each seed gives the template's intended outcome at the seed code, and
# the seeds of one pool cost about the same number of search steps and
# coloring evaluations, so the workload seed changes inputs, not load.
POOLS = {
    "sdhl-d3-h5": [1, 2, 3, 4, 5, 7],
    "sdhl-d3-h6": [48, 45, 30, 42, 14, 28],
    "fuse-one": [9, 19, 10, 33, 34, 49],
    "almost-all-random": [3, 4, 5, 16, 18, 19],
    "dim-induct": [11, 19, 27, 6, 10, 12],
    "fuse-frontier": [26, 10, 3, 4, 20, 6],
    "fhl-random-r2": [1, 2, 3, 4, 5, 6],
    "fhl-random-r3": [1, 2, 3, 4, 5, 6],
}


@dataclass(frozen=True)
class Doc:
    """One CLI invocation: ``argv`` reads its JSON ``input`` from stdin."""

    id: str
    kind: str
    argv: tuple
    input: object
    why: str

    def stdin_bytes(self) -> bytes:
        if self.input is None:
            return b""
        return json.dumps(self.input, sort_keys=True).encode()


def _spaces(b, h, d):
    return [{"branching": b, "height": h} for _ in range(d)]


def _seeded(colors, seed):
    return {"kind": "named", "name": "seeded-random",
            "params": {"colors": colors, "seed": seed}}


def _height_perm(dim):
    return {"kind": "named", "name": "height-permutation",
            "params": {"dimension": dim}}


def _steps(n):
    return ("--max-steps", str(n))


# ---------------------------------------------------------------------------
# random strong subtrees, built here so that no library constructor shapes
# the certificate inputs


def strong_subtree(rng, branching, level_set):
    """Nodes of a random strong subtree with the given witnessing levels."""
    root = "".join(rng.choice("0123456789"[:branching])
                   for _ in range(level_set[0]))
    layers = [[root]]
    for lo, hi in zip(level_set, level_set[1:]):
        layer = []
        for node in layers[-1]:
            for digit in "0123456789"[:branching]:
                tail = "".join(rng.choice("0123456789"[:branching])
                               for _ in range(hi - lo - 1))
                layer.append(node + digit + tail)
        layers.append(layer)
    return [n for layer in layers for n in layer]


def _report(nodes, level_set):
    return {"nodes": nodes, "level_set": list(level_set)}


# ---------------------------------------------------------------------------
# staged: the search subcommands


def _sdhl(pool, height):
    def build(v, rng):
        doc = {"spaces": _spaces(2, height, 3),
               "coloring": _seeded(8, POOLS[pool][v])}
        return ("sdhl-search", "-") + _steps(20_000_000), doc
    return build


def _fuse_one(v, rng):
    doc = {"spaces": _spaces(2, 8, 2), "colorings": [_seeded(2, POOLS["fuse-one"][v])],
           "h": 4}
    return ("fusion", "run", "-") + _steps(20_000_000), doc


def _polarized(dim, depth):
    def build(v, rng):
        doc = {"spaces": _spaces(2, 12, dim + 1), "coloring": _height_perm(dim),
               "depth": depth}
        return ("polarized", "search", "-") + _steps(20_000_000), doc
    return build


def _almost_all(v, rng):
    doc = {"spaces": _spaces(2, 8, 2),
           "coloring": _seeded(2, POOLS["almost-all-random"][v]), "h": 4}
    return ("polarized", "almost-all", "-") + _steps(20_000_000), doc


def _dim_induct(v, rng):
    doc = {"spaces": _spaces(2, 11, 2),
           "coloring": _seeded(2, POOLS["dim-induct"][v]), "h": 4}
    return ("dim-induct", "-") + _steps(4_000_000), doc


FRONTIER_STEPS = 100_000


def _frontier(v, rng):
    seed = POOLS["fuse-frontier"][v]
    doc = {"spaces": _spaces(2, 10, 2),
           "colorings": [_seeded(2, 10 * seed + i) for i in range(3)], "h": 5}
    return ("fusion", "run", "-") + _steps(FRONTIER_STEPS), doc


STAGED = [
    ("sdhl-d3-h5", "sdhl", _sdhl("sdhl-d3-h5", 5),
     "sdhl-search b=2 H=5 d=3 r=8: complete not-found scan, costly blake2b coloring"),
    ("sdhl-d3-h6", "sdhl", _sdhl("sdhl-d3-h6", 6),
     "sdhl-search b=2 H=6 d=3 r=8: found witness, mono-selection predicate"),
    ("fuse-one", "fuse", _fuse_one,
     "fusion run d=2 H=8 h=4: complete not-found, _cross_consistent on one coloring"),
    ("polarized-k2", "polarized", _polarized(1, 5),
     "polarized search k=2 H=12 depth 5: cheap height-permutation coloring"),
    ("polarized-k3", "polarized", _polarized(2, 3),
     "polarized search k=3 H=12 depth 3: three-factor pick_consistent"),
    ("almost-all-random", "almost_all", _almost_all,
     "polarized almost-all H=8 h=4: staged route on a seeded-random coloring"),
    ("dim-induct", "dim_induct", _dim_induct,
     "dim-induct H=11 h=4: partial tail cone, trim, dshl votes, reassembly"),
    ("fuse-frontier", "fuse", _frontier,
     f"fusion run d=2 m=3 H=10 h=5 capped at {FRONTIER_STEPS} steps: steps/s end to end"),
]


# ---------------------------------------------------------------------------
# checks: checkers and the condition algebra, one rejected input each


def _validate_subtree(height, extra, corrupt):
    def build(v, rng):
        levels = sorted(rng.sample(range(height + extra), height))
        nodes = strong_subtree(rng, 2, levels)
        if corrupt:
            nodes.pop(rng.randrange(1, len(nodes)))
        doc = {"space": {"branching": 2, "height": height + extra}}
        doc.update(_report(nodes, levels))
        return ("validate-subtree", "-"), doc
    return build


def _hl_check(levels, modulus):
    def build(v, rng):
        level_set = [2 * i for i in range(levels)]
        reports = [_report(strong_subtree(rng, 2, level_set), level_set)
                   for _ in range(2)]
        doc = {"spaces": _spaces(2, 2 * levels, 2), "reports": reports,
               "coloring": {"kind": "named", "name": "level-parity",
                            "params": {"arity": 2, "modulus": modulus}}}
        return ("hl-check", "-"), doc
    return build


def prefix_color_source(width, a, b):
    """A coloring that depends only on the first ``width`` digits of each node."""
    return (f"(int(nodes[0][:{width}]) * {a} + int(nodes[1][:{width}]) * {b}"
            f" + {a + b}) % colors")


def prefix_color(node0, node1, width, a, b, colors):
    return (int(node0[:width]) * a + int(node1[:width]) * b + a + b) % colors


def _fusion_check(height, members, corrupt):
    def build(v, rng):
        nodes = [n for alpha in range(height) for n in _level(alpha)]
        full = _report(nodes, list(range(height)))
        colorings, tables = [], []
        for i in range(members):
            a, b = rng.randrange(1, 7), rng.randrange(1, 7)
            colorings.append({"kind": "named", "name": "expr",
                              "params": {"colors": 3, "source":
                                         prefix_color_source(i + 1, a, b)}})
            tables.append({f"{x},{y}": prefix_color(x, y, i + 1, a, b, 3)
                           for x in _level(i + 1) for y in _level(i + 1)})
        if corrupt:
            key = sorted(tables[-1])[rng.randrange(len(tables[-1]))]
            tables[-1][key] = (tables[-1][key] + 1) % 3
        doc = {"spaces": _spaces(2, height, 2), "colorings": colorings,
               "certificate": {"reports": [full, full], "tables": tables}}
        return ("fusion", "check", "-"), doc
    return build


def _level(alpha):
    return [format(i, "b").zfill(alpha) if alpha else "" for i in range(2 ** alpha)]


def _verify_lb(d, levels, height, disjoint):
    def build(v, rng):
        reports = []
        for k in range(d + 1):
            if disjoint:
                level_set = [k * levels + i for i in range(levels)]
            else:
                level_set = sorted(rng.sample(range(height), levels))
            reports.append(_report(strong_subtree(rng, 2, level_set), level_set))
        top = max(r["level_set"][-1] for r in reports) + 1
        doc = {"spaces": _spaces(2, top, d + 1), "reports": reports, "d": d}
        return ("polarized", "verify-lb", "-"), doc
    return build


def _raw_union_map(rng, ground, degree):
    """Monotone raw map u -> union of per-element blocks, each containing its element."""
    blocks = {i: {i} | set(rng.sample(range(100, 140), 2)) for i in ground}
    raw = []
    for r in range(degree + 1):
        for u in _combinations(ground, r):
            image = set().union(*(blocks[i] for i in u)) if u else set()
            raw.append({"u": list(u), "W": sorted(image)})
    return raw


def _combinations(items, r):
    return [tuple(c) for c in itertools.combinations(items, r)]


def _wmap_build(size, degree):
    def build(v, rng):
        ground = sorted(rng.sample(range(100), size))
        doc = {"E": ground, "d": degree, "raw": _raw_union_map(rng, ground, degree)}
        return ("wmap", "build", "-"), doc
    return build


def _wmap_verify(size, degree, corrupt):
    def build(v, rng):
        ground = sorted(rng.sample(range(100), size))
        cap = sorted(rng.sample(range(100, 200), 3))
        entries = [{"u": list(u), "W": sorted(set(u) | set(cap))}
                   for r in range(degree + 1) for u in _combinations(ground, r)]
        if corrupt:
            bad = [e for e in entries if len(e["u"]) == degree]
            bad[rng.randrange(len(bad))]["W"].append(99 if 99 not in ground else 98)
        doc = {"wmap": {"E": ground, "d": degree, "entries": entries}}
        return ("wmap", "verify", "-"), doc
    return build


def _glb(count, support, per, clash):
    def build(v, rng):
        truth = {i: tuple("".join(rng.choice("01") for _ in range(12))
                          for _ in range(2)) for i in range(support)}
        conditions = []
        for _ in range(count):
            picked = rng.sample(range(support), per)
            conditions.append({"assign": {str(i): [n[:rng.randrange(1, 13)]
                                                   for n in truth[i]]
                                          for i in picked}})
        if clash:
            i = int(next(iter(conditions[0]["assign"])))
            node = truth[i][0]
            flipped = ("1" if node[0] == "0" else "0") + node[1:]
            conditions.append({"assign": {str(i): [flipped, truth[i][1]]}})
        doc = {"conditions": conditions}
        return ("cond", "glb", "-"), doc
    return build


def _delta(decoys, ground, size, target, planted):
    def build(v, rng):
        # decoys hold over half the ground set, so any two meet, while the
        # planted sets miss every decoy: no sunflower mixes the two kinds
        family = [sorted(rng.sample(range(ground), size)) for _ in range(decoys)]
        if planted:
            fresh = iter(range(ground, ground + target * size))
            core = [next(fresh) for _ in range(2)]
            family += [core + [next(fresh) for _ in range(size - 2)]
                       for _ in range(target)]
        return ("delta-system", "-"), {"family": family, "target": target}
    return build


CHECKS = [
    ("validate-subtree", "accept", _validate_subtree(12, 2, False),
     "validate-subtree on a 4095-node strong subtree: quadratic splitting clause"),
    ("validate-subtree-bad", "reject", _validate_subtree(9, 2, True),
     "validate-subtree with one node removed: must be rejected"),
    ("hl-check", "accept", _hl_check(10, 2),
     "hl-check of level-parity on two strong subtrees over even levels"),
    ("hl-check-bad", "reject", _hl_check(5, 4),
     "hl-check of level-parity mod 4 on even levels: not monochromatic"),
    ("fusion-check", "accept", _fusion_check(8, 3, False),
     "fusion check of three expr colorings on a full-tree certificate of height 8"),
    ("fusion-check-bad", "reject", _fusion_check(6, 2, True),
     "fusion check with one table entry flipped: must be rejected"),
    ("verify-lb", "accept", _verify_lb(4, 9, 13, False),
     "polarized verify-lb d=4 on five random strong subtrees of 9 levels"),
    ("verify-lb-bad", "reject", _verify_lb(2, 3, 0, True),
     "polarized verify-lb on stacked level sets: types are missing"),
    ("wmap-build", "accept", _wmap_build(11, 2),
     "wmap build E=11 d=2 on a monotone union map: build_w_map closure"),
    ("wmap-verify", "accept", _wmap_verify(12, 2, False),
     "wmap verify E=12 d=2 on a shifted-identity map: linear WMap.image scans"),
    ("wmap-verify-bad", "reject", _wmap_verify(7, 2, True),
     "wmap verify with one image enlarged: intersection law fails"),
    ("cond-glb", "glb", _glb(2000, 300, 6, False),
     "cond glb over 2000 compatible conditions: a Condition rebuilt per merge"),
    ("cond-glb-bad", "reject", _glb(50, 40, 4, True),
     "cond glb with one incomparable node: must be rejected"),
    ("delta-system", "delta", _delta(70, 30, 18, 3, True),
     "delta-system over 73 sets, target 3: sunflower planted at the end"),
    ("delta-system-bad", "reject", _delta(30, 30, 18, 3, False),
     "delta-system over 30 random sets with no sunflower of size 3"),
]


# ---------------------------------------------------------------------------
# fhl: the witness-group enumeration of finite_hl_number


def _fhl_exhaustive(d, b, r):
    def build(v, rng):
        return ("fhl", "--d", str(d), "--b", str(b), "--r", str(r),
                "--budget", "2000000"), None
    return build


def _fhl_random(r, samples):
    def build(v, rng):
        seed = POOLS[f"fhl-random-r{r}"][v]
        return ("fhl", "--d", "2", "--b", "2", "--r", str(r), "--mode", "randomized",
                "--samples", str(samples), "--seed", str(seed)), None
    return build


FHL = [
    ("fhl-1-2-2", "fhl", _fhl_exhaustive(1, 2, 2), "exhaustive FHL(1,2,2)"),
    ("fhl-1-2-3", "fhl", _fhl_exhaustive(1, 2, 3), "exhaustive FHL(1,2,3)"),
    ("fhl-1-3-2", "fhl", _fhl_exhaustive(1, 3, 2), "exhaustive FHL(1,3,2)"),
    ("fhl-2-2-2", "fhl", _fhl_exhaustive(2, 2, 2),
     "exhaustive FHL(2,2,2): capped at height 4 (2^84 colorings) at the seed"),
    ("fhl-random-r2", "fhl", _fhl_random(2, 20_000),
     "randomized d=2 b=2 r=2, 20000 samples at height 4, explicit --seed"),
    ("fhl-random-r3", "fhl", _fhl_random(3, 20_000),
     "randomized d=2 b=2 r=3, 20000 samples at height 4, explicit --seed"),
]

WORKLOADS = {"staged": STAGED, "checks": CHECKS, "fhl": FHL}


def build_doc(workload, template, variant) -> Doc:
    for name, kind, build, why in WORKLOADS[workload]:
        if name == template:
            argv, doc = build(variant, random.Random(f"{template}#{variant}"))
            return Doc(f"{template}#{variant}", kind, tuple(argv), doc, why)
    raise KeyError(template)


def generate(workload, seed) -> list[Doc]:
    """The documents of one pass; the seed picks each template's variant."""
    rng = random.Random(f"{workload}:{seed}")
    return [build_doc(workload, name, rng.randrange(VARIANTS))
            for name, _, _, _ in WORKLOADS[workload]]


def all_docs(workload) -> list[Doc]:
    return [build_doc(workload, name, v)
            for name, _, _, _ in WORKLOADS[workload] for v in range(VARIANTS)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for doc in generate(args.workload, args.seed):
        print(f"{doc.id}: hl-lab {' '.join(doc.argv)}  # {doc.why}")


if __name__ == "__main__":
    main()
