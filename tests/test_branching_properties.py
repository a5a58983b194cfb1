"""Property tests: the per-generation interning against the parent-by-parent oracle."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ustlocal.branching import _intern_generation
from ustlocal.trees import CodeInterner

from branching_oracle import intern_generation_oracle

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

# ids 0..4 exist before the generation: the single vertex, then these rows
SEED_ROWS = [(0,), (0, 0), (1,), (0, 1)]
POOL = 1 + len(SEED_ROWS)


def seeded_interner():
    interner = CodeInterner()
    for row in SEED_ROWS:
        interner.intern(row)
    return interner


@st.composite
def generations(draw):
    """(child counts per parent, child ids in parent order, unsorted within a parent)."""
    counts = draw(st.lists(st.integers(0, 8), min_size=1, max_size=40))
    codes = draw(st.lists(st.integers(0, POOL - 1), min_size=sum(counts), max_size=sum(counts)))
    return counts, codes


@PROPERTY
@given(generations())
@example(([0, 0, 0], []))  # no parent has a child
def test_generation_ids_match_oracle(gen):
    counts, codes = gen
    child_parent = np.repeat(np.arange(len(counts)), counts)
    child_codes = np.array(codes, dtype=np.int64)
    fast, slow = seeded_interner(), seeded_interner()
    got = _intern_generation(fast, child_parent, child_codes, len(counts))
    want = intern_generation_oracle(slow, child_parent, child_codes, len(counts))
    assert got.tolist() == want.tolist()
    # new ids were handed out in the same first-appearance order
    assert fast.children == slow.children
    assert list(fast.ids.items()) == list(slow.ids.items())

