"""Property tests: the per-generation interning against the parent-by-parent oracle."""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ustlocal.trees import CodeInterner, _intern_generation

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
    counts = np.array(counts, dtype=np.int64)
    child_codes = np.array(codes, dtype=np.int64)
    fast, slow = seeded_interner(), seeded_interner()
    got = _intern_generation(fast, counts, child_codes)
    want = intern_generation_oracle(slow, counts, child_codes)
    assert got.tolist() == want.tolist()
    # new ids were handed out in the same first-appearance order
    assert fast.children == slow.children
    assert list(fast.ids.items()) == list(slow.ids.items())


@PROPERTY
@given(st.lists(st.integers(0, 12), min_size=1, max_size=60))
@example([0, 0])
def test_leaf_generation_ids_match_oracle(counts):
    # child_codes=None: every child is a leaf, so each parent is a star
    counts = np.array(counts, dtype=np.int64)
    fast, slow = seeded_interner(), seeded_interner()
    got = _intern_generation(fast, counts, None)
    want = intern_generation_oracle(slow, counts, None)
    assert got.tolist() == want.tolist()
    assert list(fast.ids.items()) == list(slow.ids.items())


def test_rows_too_wide_to_pack_match_oracle():
    # POOL ** 30 passes 2^63, so the 30-child rows are compared column by column
    rng = np.random.default_rng(3)
    counts = rng.choice([0, 2, 30], size=200)
    child_codes = rng.integers(0, 2, size=int(counts.sum()))  # few distinct rows
    child_codes[rng.random(len(child_codes)) < 0.01] = POOL - 1
    fast, slow = seeded_interner(), seeded_interner()
    got = _intern_generation(fast, counts, child_codes)
    want = intern_generation_oracle(slow, counts, child_codes)
    assert got.tolist() == want.tolist()
    assert list(fast.ids.items()) == list(slow.ids.items())
    assert len(fast.ids) < len(SEED_ROWS) + 1 + 200  # some rows repeat
