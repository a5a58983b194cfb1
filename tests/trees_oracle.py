"""Reference tree operations that only the tests use."""
from ustlocal.trees import RootedTree


def rooted_isomorphic(t1: RootedTree, t2: RootedTree) -> bool:
    return t1.canonical_code() == t2.canonical_code()


def truncate(tree: RootedTree, r: int) -> RootedTree:
    """Restrict to vertices at height <= r (an induced rooted subtree)."""
    keep = [v for v in range(tree.size) if tree.heights[v] <= r]
    new_index = {v: i for i, v in enumerate(keep)}
    parent = [-1 if tree.parent[v] == -1 else new_index[tree.parent[v]] for v in keep]
    return RootedTree(parent)
