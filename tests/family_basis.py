"""The basis of a row family, slot by slot, for tests that walk it."""

from nchodge.linalg import unit_vector


def iter_basis(family):
    """Yield (q, m, ab, elem) for every basis vector of every slot."""
    for q, m, ab in family.slots():
        for t, (off, d) in family.rows[q].layout[(m, ab)].items():
            for i in range(d):
                yield q, m, ab, {(t, ab): unit_vector(d, i)}
