"""A seeded zoo of monoids with involution: M x M^op under the swap.

For any monoid M, M x M^op with (a, b)(c, d) = (a c, d b) is a monoid, and
the swap sigma(a, b) = (b, a) is an involutive anti-automorphism of it:
sigma((a, b)(c, d)) = (d b, a c) = (d, c)(b, a). M runs over random
transformation monoids on at most 3 points from 2 generators, so most zoo
carriers are not groups, and sigma is not the inverse on any of them: the
Forti-Sikorska construction reads its pair rows (``_fs_pair_sums``) on each.
Each carrier is named by its seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from jensen_stab import ExperimentConfig, FiniteCarrier, run_experiment, validate_carrier
from jensen_stab.stabilize import METHODS

SEEDS = range(24)
AMPLITUDES = (0.05, 0.5)
# M x M^op has |M|^2 elements, and validation scans all n^3 triples.
MAX_MONOID = 8


def _transformation_monoid(rng: np.random.Generator) -> list[tuple[int, ...]]:
    """The monoid of maps of {0, ..., n-1} (n = 2 or 3) generated by two
    random maps, identity first; a map is its tuple of images."""
    n = int(rng.integers(2, 4))
    gens = [tuple(rng.integers(0, n, n).tolist()) for _ in range(2)]
    elements = [tuple(range(n))]
    for a in elements:  # grows while it is read: every element times every generator
        for g in gens:
            b = tuple(g[i] for i in a)
            if b not in elements:
                elements.append(b)
    return elements


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a, then b."""
    return tuple(b[i] for i in a)


def _zoo_carrier(seed: int) -> FiniteCarrier:
    """M x M^op with the swap, for the first monoid M the seed draws with 2 to MAX_MONOID elements."""
    rng = np.random.default_rng(seed)
    m = _transformation_monoid(rng)
    while not 2 <= len(m) <= MAX_MONOID:
        m = _transformation_monoid(rng)
    pairs = [(a, b) for a in m for b in m]
    index = {p: i for i, p in enumerate(pairs)}
    op = [[index[(_compose(a, c), _compose(d, b))] for c, d in pairs] for a, b in pairs]
    swap = [index[(b, a)] for a, b in pairs]
    labels = ["".join(map(str, a)) + "|" + "".join(map(str, b)) for a, b in pairs]
    return FiniteCarrier(labels, op, swap, neutral=0, name=f"zoo{seed}")


@pytest.mark.parametrize("seed", SEEDS)
def test_a_zoo_carrier_keeps_the_3_delta_bound_and_refuses_a_broken_involution(seed):
    c = _zoo_carrier(seed)
    assert 4 <= c.size <= MAX_MONOID**2
    assert validate_carrier(c).ok
    assert not c.sigma_is_inverse
    available = sorted(m for m in METHODS if m != "mean" or c.is_group)
    for amp in AMPLITUDES:
        report = run_experiment(ExperimentConfig(
            carrier=c.to_dict(), base_constant=1 - 2j, noise_type="seeded_uniform", noise_amplitude=amp,
            noise_seed=seed, methods=list(METHODS),
        ))
        assert report["pass"], report["errors"]
        assert report["inequalities"] and all(r["holds"] for r in report["inequalities"])
        assert sorted(report["verification"]) == available
        assert all(v["stability"]["holds"] for v in report["verification"].values())
    # The swap with the neutral element and a sigma-fixed (b, b) exchanged is
    # still involutive, but sigma(e b) = e while sigma(b) sigma(e) = b.
    fixed = next(i for i in range(1, c.size) if c.involution[i] == i)
    broken = c.involution.copy()
    broken[[0, fixed]] = broken[[fixed, 0]]
    spec = {**c.to_dict(), "involution": broken.tolist()}
    report = run_experiment(ExperimentConfig(carrier=spec, noise_type="seeded_uniform", noise_amplitude=0.1))
    assert report["validation"]["violations"][0]["axiom"] == "anti_homomorphism"
    assert report["errors"] == [{"stage": "validation", "error": "carrier axioms violated"}]
