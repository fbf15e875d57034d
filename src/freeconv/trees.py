"""Planar binary trees as nested tuples.

A tree is either the empty tree ``()`` (a leaf, size 0) or a pair
``(left, right)`` of trees (one internal vertex plus the vertices of both
subtrees).  Vertices are labelled 1..n in left-to-right (in-order) traversal:
left subtree, then the vertex itself, then the right subtree.  Labels are
never stored, always recomputed.

Text encoding: ``|`` for the leaf, ``(L,R)`` for a pair, e.g. ``((|,|),|)``.
"""

from functools import lru_cache
from itertools import product

LEAF = ()

SINGLE = (LEAF, LEAF)          # the unique 1-vertex tree
OVER2 = (SINGLE, LEAF)         # 2 vertices, root on the right arm's top
UNDER2 = (LEAF, SINGLE)        # 2 vertices, the right comb


def is_leaf(t):
    return t == ()


def size(t):
    if t == ():
        return 0
    return size(t[0]) + size(t[1]) + 1


def wedge(left, right):
    """Join two trees under a new root (the Catalan composition on Y)."""
    return (left, right)


def unwedge(t):
    if t == ():
        raise ValueError("the empty tree has no root to remove")
    return t[0], t[1]


@lru_cache(maxsize=None)
def enumerate_trees(n):
    """All planar binary trees with n internal vertices.

    Deterministic order: by size of the left subtree ascending, recursively.
    """
    if n < 0:
        raise ValueError("tree size must be non-negative")
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for left in enumerate_trees(k):
            for right in enumerate_trees(n - 1 - k):
                out.append((left, right))
    return tuple(out)


def graft(mode, a, b):
    """Graft two trees: ``over`` hangs a below-left of b, ``under`` hangs b below-right of a.

    over  (a/b): a becomes the left child of b's leftmost vertex.
    under (a\\b): b becomes the right child of a's rightmost vertex.
    Conventions: x/() = x, ()/x = x, x\\() = x, ()\\x = x.
    """
    if mode == "over":
        return _over(a, b)
    if mode == "under":
        return _under(a, b)
    raise ValueError(f"unknown graft mode {mode!r}")


def _over(a, b):
    if a == ():
        return b
    if b == ():
        return a
    return (_over(a, b[0]), b[1])


def _under(a, b):
    if b == ():
        return a
    if a == ():
        return b
    return (a[0], _under(a[1], b))


def substitute(t, subs):
    """Operadic substitution: replace vertex i of t by subs[i-1] (in-order).

    Every substituted tree must be nonempty; the result is
    (left-part) / subs[root] \\ (right-part), which is unambiguous because the
    root's replacement is nonempty.
    """
    if t == ():
        if subs:
            raise ValueError("the empty tree accepts no substitutions")
        return ()
    n = size(t)
    if len(subs) != n:
        raise ValueError(f"need {n} trees, got {len(subs)}")
    if any(s == () for s in subs):
        raise ValueError("substituted trees must be nonempty")
    return _subst(t, list(subs))


def _subst(t, subs):
    if t == ():
        return ()
    k = size(t[0])
    left = _subst(t[0], subs[:k])
    root = subs[k]
    right = _subst(t[1], subs[k + 1:])
    return _under(_over(left, root), right)


def comb_decompose(t):
    """The trees hanging left off the right spine, top to bottom.

    t = wedge(a_1, wedge(a_2, ... wedge(a_m, ()) ...)); returns [a_1..a_m].
    """
    if t == ():
        raise ValueError("the empty tree has no comb decomposition")
    parts = []
    while t != ():
        parts.append(t[0])
        t = t[1]
    return parts


def comb(parts):
    """Inverse of comb_decompose."""
    t = ()
    for p in reversed(parts):
        t = (p, t)
    return t


def right_comb(n):
    return comb([()] * n)


def rotated_comb(subs):
    """The doubled comb: each slot hangs off the right spine via a planting vertex.

    RC(s_1..s_j) = wedge(wedge((), s_1), RC(s_2..s_j)), so the size is
    2j + sum of slot sizes.  This is the unique shape compatible with
    rmap(comb(a_1..a_j)) = RC(rmap(a_1)..rmap(a_j)).
    """
    subs = list(subs)
    if not subs:
        raise ValueError("rotated comb needs at least one slot")
    return _rc(subs)


def _rc(subs):
    if not subs:
        return ()
    return (((), subs[0]), _rc(subs[1:]))


_RMAP_CACHE = {}


def rmap(t):
    """The size-doubling embedding: rmap(()) = (), rmap((s,u)) = (((), rmap(s)), rmap(u)).

    Memoized in a module dict, which costs no recursion level of its own.
    """
    if t == ():
        return ()
    hit = _RMAP_CACHE.get(t)
    if hit is None:
        hit = _RMAP_CACHE[t] = (((), rmap(t[0])), rmap(t[1]))
    return hit


BE = "BE"
BO = "BO"
NONE = "NONE"


@lru_cache(maxsize=None)
def classify(t):
    """Parity class of a tree: BE, BO, or NONE.

    BE: the leaf, or wedge(s, u) with s in BO and u in BE (even size).
    BO: wedge(s, u) with both parts in BE (odd size).
    These are exactly the trees whose right arms carry in-order labels of a
    single parity each (see splits()).
    """
    if t == ():
        return BE
    cl, cr = classify(t[0]), classify(t[1])
    if cl == BO and cr == BE:
        return BE
    if cl == BE and cr == BE:
        return BO
    return NONE


def splits(t):
    """Direct arm-parity test: every right arm's labels share one parity.

    A right arm is a maximal chain vertex, right-child, right-right-child, ...
    (its top is the root or some left child).
    """
    return all(all(v % 2 == arm[0] % 2 for v in arm) for arm in right_arms(t))


def right_arms(t):
    """The label lists of t's right arms, each from the top of its arm down."""
    arms = []
    _collect_arms(t, 1, arms)
    return arms


def _collect_arms(t, offset, arms):
    # offset = label of t's first vertex; returns nothing, appends label lists
    if t == ():
        return
    arm = []
    pos = offset
    node = t
    while node != ():
        left = node[0]
        _collect_arms(left, pos, arms)
        pos += size(left)
        arm.append(pos)
        pos += 1
        node = node[1]
    arms.append(arm)


@lru_cache(maxsize=None)
def _ybe(n):
    """Y^be with n vertices (n even), built from the recursive definition."""
    if n == 0:
        return (LEAF,)
    out = []
    for k1 in range(0, n - 1, 2):
        for s in _ybo(k1 + 1):
            for u in _ybe(n - 2 - k1):
                out.append((s, u))
    return tuple(out)


@lru_cache(maxsize=None)
def _ybo(n):
    """Y^bo with n vertices (n odd)."""
    out = []
    for k1 in range(0, n, 2):
        for s in _ybe(k1):
            for u in _ybe(n - 1 - k1):
                out.append((s, u))
    return tuple(out)


def parity_trees(parity, n):
    """Enumerate Y^be_n (parity='BE', n even) or Y^bo_n (parity='BO', n odd)."""
    if parity == BE:
        if n % 2:
            return ()
        return _ybe(n)
    if parity == BO:
        if n % 2 == 0:
            return ()
        return _ybo(n)
    raise ValueError("parity must be BE or BO")


def yb_set(n):
    """Y^b with 2n vertices: the image of Y_n under rmap."""
    return tuple(rmap(t) for t in enumerate_trees(n))


@lru_cache(maxsize=None)
def pi_set(t):
    """The packaging map into even-parity trees.

    pi_set(()) = {()}; for t with comb parts (t_1..t_k),
    pi_set(t) = { rho o (s_1/*, *, ..., s_k/*, *) : rho in Y^b_{2k},
                  s_i in pi_set(t_i) },
    where * is the 1-vertex tree and s/* = wedge(s, ()).
    """
    if t == ():
        return frozenset([()])
    parts = comb_decompose(t)
    k = len(parts)
    options = [pi_set(p) for p in parts]
    out = set()
    for rho in yb_set(k):
        for choice in product(*options):
            subs = []
            for s in choice:
                subs.append((s, ()))     # s grafted over the 1-vertex tree
                subs.append(SINGLE)
            out.add(substitute(rho, subs))
    return frozenset(out)


# -- text encoding -----------------------------------------------------------

def tree_to_text(t):
    if t == ():
        return "|"
    return f"({tree_to_text(t[0])},{tree_to_text(t[1])})"


def tree_from_text(s):
    t, rest = _parse(s.replace(" ", ""))
    if rest:
        raise ValueError(f"trailing input {rest!r}")
    return t


def _parse(s):
    if s.startswith("|"):
        return (), s[1:]
    if not s.startswith("("):
        raise ValueError(f"expected '|' or '(' at {s!r}")
    left, rest = _parse(s[1:])
    if not rest.startswith(","):
        raise ValueError(f"expected ',' at {rest!r}")
    right, rest = _parse(rest[1:])
    if not rest.startswith(")"):
        raise ValueError(f"expected ')' at {rest!r}")
    return (left, right), rest[1:]


assert _over(SINGLE, SINGLE) == (SINGLE, LEAF)
assert _under(SINGLE, SINGLE) == (LEAF, SINGLE)
assert substitute(SINGLE, [OVER2]) == OVER2
assert rmap(SINGLE) == OVER2 == rotated_comb([LEAF])
assert tree_from_text(tree_to_text((OVER2, SINGLE))) == (OVER2, SINGLE)
