from __future__ import annotations

import random
from itertools import permutations
from pathlib import Path

import pytest

from hurwitz_components.groups import CayleyGroup, construct_group

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def q8_path() -> Path:
    return DATA_DIR / "q8.json"


@pytest.fixture(scope="session")
def q8(q8_path):
    return construct_group(f"cayley:{q8_path}")


@pytest.fixture(scope="session")
def psl27() -> CayleyGroup:
    """PSL(2,7) as a Cayley table: the 168 collineations of the Fano plane
    with lines {i, i + 1, i + 3} mod 7, as permutations in Sym(7) composed
    left factor first, in lexicographic order."""
    lines = [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    perms = [p for p in permutations(range(7)) if all({p[x] for x in line} in lines for line in lines)]
    index = {p: i for i, p in enumerate(perms)}
    return CayleyGroup(
        {
            "order": len(perms),
            "labels": ["".join(map(str, p)) for p in perms],
            "table": [[index[tuple(q[i] for i in p)] for q in perms] for p in perms],
        }
    )


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20260819)
