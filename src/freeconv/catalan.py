"""The Catalan-pair atlas: one abstraction, many families, one isomorphism.

A *Catalan pair* is a graded family of finite sets C = (C_n) together with a
composition map sending C_j x C_k into C_{j+k+1} such that the induced maps
``union over k of (C_k x C_{n-k}) -> C_{n+1}`` are bijections.  Any two such
pairs are isomorphic by a unique size-preserving bijection, computed here by
structural recursion (decompose in the source, compose in the target) with
memoization.  No per-pair special cases exist: every named bijection below is
the generic isomorphism for a particular (source, target) choice.

Registered families (grading in brackets):

==========  =======================================  =============================
id          carrier                                  composition (x, y) -> z
==========  =======================================  =============================
y           binary trees [vertices]                  wedge(x, y)
yp          binary trees [vertices]                  wedge(y, x)
ncp1..ncp8  noncrossing partitions [elements]        eight merge recipes, below
pt1, pt2    planar rooted trees [edges]              graft under/over the root
rst1, rst2  right Schroder trees [leaves - 1]        graft keeping last-child leaf
lst1, lst2  left Schroder trees [leaves - 1]         graft keeping first-child leaf
ndpf        nondecreasing parking functions [length] splice with a new fixed point
==========  =======================================  =============================

Planar and Schroder trees are tuples of children (a vertex is the tuple of
its subtrees; the leaf is the empty tuple).  In a right (left) Schroder tree
every internal vertex has at least two children and its last (first) child is
a leaf.  Parking functions are tuples a with a(i) <= i, nondecreasing.
"""

from collections import namedtuple
from functools import lru_cache

from . import partitions as pt
from . import trees as tr
from .partitions import (canonical, is_noncrossing, is_partition, kreweras,
                         kreweras_inverse, merge_op, partition_size)


# -- partition helpers used by the ncp composes -------------------------------

def _remove(p, x):
    return canonical(tuple(y for y in b if y != x) for b in p)


def _restrict(p, lo, hi):
    """Elements lo..hi of p, relabelled to start at 1."""
    return canonical(tuple(y - lo + 1 for y in b if lo <= y <= hi) for b in p)


def _block_of(p, x):
    return next(b for b in p if x in b)


def _unit_right(q):
    """| under-merge q: the singleton {1} joined onto the last block of q."""
    return ((1,),) if not q else merge_op("right", ((1,),), q)


def _unit_left_on(q):
    """q over-merge |: the singleton appended and joined onto the block of 1."""
    return ((1,),) if not q else merge_op("left", q, ((1,),))


# -- the eight noncrossing-partition composes ---------------------------------
#
# Each decompose locates the glued element from the block structure of the
# composite; the compose direction is the literal merge recipe.

def _ncp1_c(p, q):
    return merge_op("concat", p, _unit_right(q))


def _ncp1_d(z):
    n = partition_size(z)
    m = min(_block_of(z, n))
    return _restrict(z, 1, m - 1), _restrict(_remove(z, m), m + 1, n)


def _ncp2_c(p, q):
    inner = merge_op("concat", ((1,),), q)
    return inner if not p else merge_op("left", p, inner)


def _ncp2_d(z):
    n = partition_size(z)
    m = max(_block_of(z, 1))
    return _restrict(_remove(z, m), 1, m - 1), _restrict(z, m + 1, n)


def _ncp3_c(p, q):
    inner = merge_op("concat", ((1,),), p)
    return inner if not q else merge_op("left", inner, q)


def _ncp3_d(z):
    n = partition_size(z)
    b1 = _block_of(z, 1)
    if b1 == (1,):
        return _restrict(z, 2, n), ()
    m = b1[1] - 1
    return _restrict(z, 2, m), _restrict(_remove(z, 1), m + 1, n)


def _ncp4_c(p, q):
    return merge_op("concat", _unit_right(p), q)


def _ncp4_d(z):
    n = partition_size(z)
    m = max(_block_of(z, 1))
    return _restrict(_remove(z, 1), 2, m), _restrict(z, m + 1, n)


def _ncp5_c(p, q):
    return merge_op("concat", p, _unit_left_on(q))


def _ncp5_d(z):
    n = partition_size(z)
    m = min(_block_of(z, n))
    return _restrict(z, 1, m - 1), _restrict(_remove(z, n), m, n - 1)


def _ncp6_c(p, q):
    inner = merge_op("concat", q, ((1,),))
    return inner if not p else merge_op("right", p, inner)


def _ncp6_d(z):
    n = partition_size(z)
    bn = _block_of(z, n)
    if bn == (n,):
        return (), _restrict(z, 1, n - 1)
    m = max(x for x in bn if x < n)
    return _restrict(_remove(z, n), 1, m), _restrict(z, m + 1, n - 1)


def _ncp7_c(p, q):
    return merge_op("concat", _unit_right(kreweras(p)), q)


def _ncp7_d(z):
    n = partition_size(z)
    m = max(_block_of(z, 1))
    return kreweras_inverse(_restrict(_remove(z, 1), 2, m)), _restrict(z, m + 1, n)


def _ncp8_c(p, q):
    return merge_op("concat", p, _unit_right(kreweras(q)))


def _ncp8_d(z):
    n = partition_size(z)
    m = min(_block_of(z, n))
    return _restrict(z, 1, m - 1), kreweras_inverse(_restrict(_remove(z, m), m + 1, n))


# -- planar-tree families ------------------------------------------------------

def _edges(t):
    return len(t) + sum(_edges(c) for c in t)


def _leaves(t):
    if t == ():
        return 1
    return sum(_leaves(c) for c in t)


def _is_planar(t):
    return isinstance(t, tuple) and all(_is_planar(c) for c in t)


def _is_schroder(t, side):
    """side=-1: every internal vertex's last child is a leaf; side=0: first."""
    if t == ():
        return True
    return len(t) >= 2 and t[side] == () and all(_is_schroder(c, side) for c in t)


def _pt1_c(s, t):
    return (s,) + t


def _pt1_d(z):
    return z[0], z[1:]


def _pt2_c(s, t):
    return s + (t,)


def _pt2_d(z):
    return z[:-1], z[-1]


def _rst1_c(s, t):
    return (s, ()) if t == () else (s,) + t


def _rst1_d(z):
    return (z[0], ()) if len(z) == 2 else (z[0], z[1:])


def _rst2_c(s, t):
    return (t, ()) if s == () else s[:-1] + (t, ())


def _rst2_d(z):
    return ((), z[0]) if len(z) == 2 else (z[:-2] + ((),), z[-2])


def _lst1_c(s, t):
    return ((), t) if s == () else s + (t,)


def _lst1_d(z):
    return ((), z[1]) if len(z) == 2 else (z[:-1], z[-1])


def _lst2_c(s, t):
    return ((), s) if t == () else ((), s) + t[1:]


def _lst2_d(z):
    return (z[1], ()) if len(z) == 2 else (z[1], ((),) + z[2:])


# -- nondecreasing parking functions -------------------------------------------

def _ndpf_c(u, v):
    k = len(u)
    return u + (k + 1,) + tuple(x + k for x in v)


def _ndpf_d(w):
    i = max(j for j in range(1, len(w) + 1) if w[j - 1] == j)
    return w[:i - 1], tuple(x - (i - 1) for x in w[i:])


def _is_ndpf(w):
    return (isinstance(w, tuple) and all(isinstance(x, int) for x in w)
            and all(w[i] <= i + 1 for i in range(len(w)))
            and all(w[i] <= w[i + 1] for i in range(len(w) - 1))
            and all(x >= 1 for x in w))


def _is_binary(t):
    return t == () or (isinstance(t, tuple) and len(t) == 2
                       and _is_binary(t[0]) and _is_binary(t[1]))


Family = namedtuple("Family", "name unit size compose decompose member")
Family.__doc__ = "One Catalan pair: unit, grading, composition, and its inverse."


def _ncp_member(p):
    return is_partition(p) and is_noncrossing(p)


FAMILIES = {}


def _register(fam):
    FAMILIES[fam.name] = fam
    return fam


_register(Family("y", (), tr.size, tr.wedge, tr.unwedge, _is_binary))
_register(Family("yp", (), tr.size, lambda s, t: (t, s),
                 lambda z: (tr.unwedge(z)[1], tr.unwedge(z)[0]), _is_binary))
for _i, (_c, _d) in enumerate([(_ncp1_c, _ncp1_d), (_ncp2_c, _ncp2_d),
                               (_ncp3_c, _ncp3_d), (_ncp4_c, _ncp4_d),
                               (_ncp5_c, _ncp5_d), (_ncp6_c, _ncp6_d),
                               (_ncp7_c, _ncp7_d), (_ncp8_c, _ncp8_d)], start=1):
    _register(Family(f"ncp{_i}", (), partition_size, _c, _d, _ncp_member))
_register(Family("pt1", (), _edges, _pt1_c, _pt1_d, _is_planar))
_register(Family("pt2", (), _edges, _pt2_c, _pt2_d, _is_planar))
_register(Family("rst1", (), lambda t: _leaves(t) - 1, _rst1_c, _rst1_d,
                 lambda t: _is_schroder(t, -1)))
_register(Family("rst2", (), lambda t: _leaves(t) - 1, _rst2_c, _rst2_d,
                 lambda t: _is_schroder(t, -1)))
_register(Family("lst1", (), lambda t: _leaves(t) - 1, _lst1_c, _lst1_d,
                 lambda t: _is_schroder(t, 0)))
_register(Family("lst2", (), lambda t: _leaves(t) - 1, _lst2_c, _lst2_d,
                 lambda t: _is_schroder(t, 0)))
_register(Family("ndpf", (), len, _ndpf_c, _ndpf_d, _is_ndpf))


@lru_cache(maxsize=None)
def reversed_family(name):
    """The mechanically swapped pair: compose'(x, y) = compose(y, x)."""
    base = get_family(name)
    return Family(name + "_rev", base.unit, base.size,
                  lambda s, t: base.compose(t, s),
                  lambda z: base.decompose(z)[::-1], base.member)


def get_family(name):
    """The family `name`, or the reversal of a registered one for "<name>_rev".

    Reversed families are resolved on demand and never join FAMILIES, so a
    lookup cannot change what the suites iterate over.
    """
    if name in FAMILIES:
        return FAMILIES[name]
    if name.endswith("_rev") and name[:-4] in FAMILIES:
        return reversed_family(name[:-4])
    raise ValueError(f"unknown family {name!r}")


def catalan_compose(fam, x, y):
    f = get_family(fam)
    if not (f.member(x) and f.member(y)):
        raise ValueError(f"operands do not belong to family {fam!r}")
    return f.compose(x, y)


def catalan_decompose(fam, z):
    f = get_family(fam)
    if f.size(z) == 0:
        raise ValueError("size-0 elements do not decompose")
    return f.decompose(z)


@lru_cache(maxsize=None)
def family_elements(fam, n):
    """Level n of a family, enumerated through its own composition."""
    if n < 0:
        raise ValueError("family level must be non-negative")
    f = get_family(fam)
    if n == 0:
        return (f.unit,)
    out = []
    for k in range(n):
        for x in family_elements(fam, k):
            for y in family_elements(fam, n - 1 - k):
                out.append(f.compose(x, y))
    return tuple(out)


_ISO_CACHE = {}


def catalan_iso(src, dst, x):
    """The unique isomorphism of Catalan pairs, src -> dst.

    Defined by sending units to units and composites to composites; memoized,
    hence functorial by construction.
    """
    fs, fd = get_family(src), get_family(dst)
    if fs.size(x) == 0:
        return fd.unit
    key = (src, dst, x)
    hit = _ISO_CACHE.get(key)
    if hit is not None:
        return hit
    a, b = fs.decompose(x)
    out = fd.compose(catalan_iso(src, dst, a), catalan_iso(src, dst, b))
    _ISO_CACHE[key] = out
    return out


#: name -> (source family, target family).  Every named map is the generic
#: isomorphism for its typing; the multi-typed coincidences the atlas claims
#: (e.g. prodinger as pt1->ncp4 and as pt2->ncp1) are verified in the suites.
NAMED_BIJECTIONS = {
    "phi": ("y", "ncp1"),
    "phi_inv": ("ncp1", "y"),
    "psi": ("y", "ncp2"),
    "kreweras_iso": ("ncp2", "ncp1"),
    "rot": ("y", "pt1"),
    "mirror": ("y", "yp"),
    "edelman": ("y", "ncp3"),
    "prodinger": ("pt1", "ncp4"),
    "dershowitz_zaks": ("pt2", "ncp2"),
    "gaps_rst": ("rst1", "ncp1"),
    "gaps_lst": ("lst1", "ncp2"),
    "bernardi": ("ncp7", "pt1"),
    "add_left": ("pt2", "lst1"),
    "add_right": ("pt1", "rst1"),
}


def named_bijection(name, x):
    if name not in NAMED_BIJECTIONS:
        raise ValueError(f"unknown bijection {name!r}; known: {sorted(NAMED_BIJECTIONS)}")
    src, dst = NAMED_BIJECTIONS[name]
    if not get_family(src).member(x):
        raise ValueError(f"input is not a member of {name}'s source family {src!r}")
    return catalan_iso(src, dst, x)


# -- direct constructions used as cross-checks ---------------------------------

def phi_arms(t):
    """Independent description of phi: blocks are the right arms' label sets."""
    return canonical(tuple(a) for a in tr.right_arms(t))


def rotation_to_binary(p):
    """First child becomes left child, next sibling becomes right child."""
    if p == ():
        return ()
    return (rotation_to_binary(p[0]), rotation_to_binary(p[1:]))


def add_rightmost_leaves(p):
    """Append a leaf child to every internal vertex of a planar tree."""
    if p == ():
        return ()
    return tuple(add_rightmost_leaves(c) for c in p) + ((),)


def add_leftmost_leaves(p):
    if p == ():
        return ()
    return ((),) + tuple(add_leftmost_leaves(c) for c in p)


def gaps_map(t):
    """The gap labelling of a Schroder tree, directly.

    Number the n+1 leaves left to right; gap i sits between leaf i and leaf
    i+1.  Two gaps belong to the same block when their lowest common ancestor
    is the same internal vertex, so each internal vertex with m children
    contributes one block of m-1 gaps.  The result is a noncrossing partition
    of [n].  Restricted to right Schroder trees this equals the isomorphism
    into ncp1, and to left Schroder trees the one into ncp2; the test suite
    pins both.
    """
    blocks = []

    def walk(node, next_leaf):
        if node == ():
            return next_leaf, next_leaf + 1
        ends = []
        cur = next_leaf
        for c in node:
            last, cur = walk(c, cur)
            ends.append(last)
        blocks.append(tuple(ends[:-1]))
        return ends[-1], cur

    if t != ():
        walk(t, 1)
    return canonical(blocks)


# -- the three commuting squares ------------------------------------------------
#
# Wherever a leg has a construction independent of the generic isomorphism
# (surgery, arm-reading, gap-reading, block complementation) the square uses
# it, so commutation is a statement about the constructions themselves rather
# than an instance of functoriality.  One and the same rotation map (first
# child -> left child, next sibling -> right child) serves all three squares.

_DIAGRAMS = {
    1: {
        "statement": "phi . rot = gaps . add_right on planar trees",
        "top": rotation_to_binary,
        "right": phi_arms,
        "left": add_rightmost_leaves,
        "bottom": gaps_map,
    },
    2: {
        "statement": "edelman . rot = gaps . add_left on planar trees",
        "top": rotation_to_binary,
        "right": lambda t: catalan_iso("y", "ncp3", t),
        "left": add_leftmost_leaves,
        "bottom": gaps_map,
    },
    3: {
        "statement": "prodinger = kreweras . edelman . rot on planar trees",
        "top": rotation_to_binary,
        "right": lambda t: kreweras(catalan_iso("y", "ncp3", t)),
        "left": lambda p: p,
        "bottom": lambda p: catalan_iso("pt1", "ncp4", p),
    },
}


def verify_diagram(diagram_id, n):
    """Check one square element-wise over all planar trees with n edges.

    Returns {"diagram", "statement", "n", "checked", "status", "witness"}.
    The two paths leave from a planar tree and meet in a partition family.
    """
    if diagram_id not in _DIAGRAMS:
        raise ValueError("diagram id must be 1, 2 or 3")
    legs = _DIAGRAMS[diagram_id]
    checked = 0
    for p in family_elements("pt1", n):
        via_top = legs["right"](legs["top"](p))
        via_left = legs["bottom"](legs["left"](p))
        checked += 1
        if via_top != via_left:
            return {"diagram": diagram_id, "statement": legs["statement"], "n": n,
                    "checked": checked, "status": "fail",
                    "witness": {"input": p, "via_top": via_top, "via_left": via_left}}
    return {"diagram": diagram_id, "statement": legs["statement"], "n": n,
            "checked": checked, "status": "pass", "witness": None}
