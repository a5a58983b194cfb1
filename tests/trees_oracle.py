"""Reference tree operations that only the tests use.

`local_census` is the library's earlier census: the same rerooting pass as
`ustlocal.trees.local_census`, but vertex by vertex over Python lists, with
one `intern` call per vertex and level.
"""
from collections import Counter

from ustlocal.errors import VertexOutOfRange
from ustlocal.trees import CodeInterner, RootedTree


def rooted_isomorphic(t1: RootedTree, t2: RootedTree) -> bool:
    return t1.canonical_code() == t2.canonical_code()


def truncate(tree: RootedTree, r: int) -> RootedTree:
    """Restrict to vertices at height <= r (an induced rooted subtree)."""
    keep = [v for v in range(tree.size) if tree.heights[v] <= r]
    new_index = {v: i for i, v in enumerate(keep)}
    parent = [-1 if tree.parent[v] == -1 else new_index[tree.parent[v]] for v in keep]
    return RootedTree(parent)


def _rooted_at_zero(tree):
    """Children lists of `tree` rooted at vertex 0, by BFS."""
    adj = tree.adjacency()
    children = [[] for _ in range(tree.n)]
    seen = [False] * tree.n
    seen[0] = True
    order = [0]
    for x in order:
        kids = children[x]
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                kids.append(y)
                order.append(y)
    return children


def local_census(tree, r):
    """Counts of ball codes over all n root choices, list by list."""
    if r < 0:
        raise VertexOutOfRange(f"radius {r}")
    n = tree.n
    if r == 0:
        return {"(1:)": n}
    children = _rooted_at_zero(tree)
    interner = CodeInterner()
    intern = interner.intern
    down = [0] * n
    up = [0] * n
    for _h in range(1, r):
        new_down = [intern(tuple(sorted([down[c] for c in kids]))) if kids else 0
                    for kids in children]
        new_up = [0] * n
        for p, kids in enumerate(children):
            if not kids:
                continue
            pool = [down[c] for c in kids]
            if p:
                pool.append(up[p])
            pool.sort()
            shared = {}  # children with equal down see equal up
            for c in kids:
                d = down[c]
                got = shared.get(d)
                if got is None:
                    rest = pool.copy()
                    rest.remove(d)
                    got = shared[d] = intern(tuple(rest))
                new_up[c] = got
        if new_down == down and new_up == up:
            break  # every deeper truncation is the same tree
        down, up = new_down, new_up
    counts = Counter()
    for v, kids in enumerate(children):
        ball_kids = [down[c] for c in kids]
        if v:
            ball_kids.append(up[v])
        ball_kids.sort()
        counts[intern(tuple(ball_kids))] += 1
    return {interner.to_code(cid): k for cid, k in counts.items()}
