"""Known answers the certified bound may not exceed.

For r very general points of the plane the Seshadri constant ε_r is known
for r <= 9, and it is at most 1/√r for every r.  The tool claims
ε_r >= ``certified_bound``, so a bound above either value is a false
claim.  These checks use no lattice, no matrix and no code of the
pipeline beyond the bound itself.  The corpus is eckl10 and the seeded
random dissections of ``conftest.random_dissection``.
"""

import random
from fractions import Fraction

from seshadri import dissection
from seshadri.dissection import builtin_dissection_eckl10, certified_bound

from conftest import random_dissection

# ε_r for r = 1..9 very general points (Nagata; see Bauer et al., "A primer
# on Seshadri constants", 2009)
EPSILON = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2),
           5: Fraction(2, 5), 6: Fraction(2, 5), 7: Fraction(3, 8), 8: Fraction(6, 17),
           9: Fraction(1, 3)}
SEEDS = range(300)


def _above_the_ceiling(dis) -> bool:
    """Whether the bound of ``dis`` exceeds what is known of ε_r."""
    bound, r = certified_bound(dis), len(dis.steps) + 1
    return bound > EPSILON[r] if r in EPSILON else bound * bound * r > 1


def _corpus():
    return [random_dissection(random.Random(seed), f"random-{seed}") for seed in SEEDS]


def test_no_bound_exceeds_the_known_constant():
    eckl10 = builtin_dissection_eckl10()
    assert certified_bound(eckl10) ** 2 * 10 == Fraction(160, 169)
    corpus = _corpus()
    assert {len(dis.steps) + 1 for dis in corpus} == set(range(2, 11))
    assert [dis.name for dis in [eckl10, *corpus] if _above_the_ceiling(dis)] == []


def test_a_score_that_ignores_the_crossing_breaks_the_ceiling(monkeypatch):
    # planted fault: each axis scores its projection width, not the first
    # crossing of its rearranged profile under the identity
    monkeypatch.setattr(dissection, "_first_crossing", lambda reordered: reordered.width)
    assert sum(map(_above_the_ceiling, _corpus())) > 0
