"""The paper's tree <-> noncrossing-partition bijection, checked tree by tree
at d = 2 against Speicher's operator-valued moment-cumulant formula.

The formula sums kappa_pi over pi in NC(n).  kappa_pi reads the block that
holds the last point as the outer spine: for that block v_1 < ... < v_k,
kappa_pi = k_k(b_1 x_{v_1}, ..., b_k x_{v_k}), where b_j is the value,
computed the same way, of the points strictly between v_{j-1} and v_j
(v_0 = 0 at the top), and is 1 when that gap is empty.  The evaluator here
is built from ``fractions`` alone: it reads k from ``to_json()`` and shares
no code with the tree tensors, so k_t == kappa_{phi(t)} at every basis
tuple says that phi is the bijection under which the tree sum and the
partition sum agree term by term.  At d = 1 kappa_pi sees only block sizes,
so it takes d >= 2 to tell the named bijections apart: psi and edelman each
fail on some tree.
"""

import random
from fractions import Fraction

from freeconv.catalan import named_bijection
from freeconv.multiseries import TreeTensors, random_series
from freeconv.trees import enumerate_trees

D, N = 2, 4


def _matrix(leaf):
    return tuple(tuple(Fraction(x) for x in row) for row in leaf["entries"])


def _read_maps(obj):
    """[{basis key: matrix}] by degree, zero values left out, from the JSON
    of a series."""
    maps = []
    for rec in obj["maps"]:
        level = [((), rec["tensor"] if rec["n"] else rec["value"])]
        for _ in range(rec["n"]):
            level = [(key + (i,), sub) for key, node in level
                     for i, sub in enumerate(node)]
        maps.append({key: m for key, m in ((key, _matrix(leaf))
                                           for key, leaf in level)
                     if any(any(row) for row in m)})
    return maps


def _unit(d, p=None, q=None):
    """The identity matrix, or the matrix unit E_pq."""
    return tuple(tuple(Fraction(int((i, j) == (p, q) if p is not None
                                    else i == j)) for j in range(d))
                 for i in range(d))


def _matmul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _apply(kk, args, d):
    """k_k at k multilinear arguments, each {key: matrix} in its own x's:
    {concatenated key: matrix}, contracted slot by slot.  Basis index i
    is the matrix unit E_{i // d, i % d}."""
    state = {((), i): m for i, m in kk.items()}
    for arg in args:
        new = {}
        for (prefix, rest), m in state.items():
            p, q = divmod(rest[0], d)
            for key, a in arg.items():
                c = a[p][q]
                if c:
                    at = (prefix + key, rest[1:])
                    old = new.get(at)
                    new[at] = tuple(
                        tuple(c * x + (old[i][j] if old else 0)
                              for j, x in enumerate(row))
                        for i, row in enumerate(m))
        state = new
    return {prefix: m for (prefix, _), m in state.items()
            if any(any(row) for row in m)}


def kappa(blocks, k, d, lo=1, hi=None):
    """kappa_pi restricted to the points lo..hi, a union of blocks of pi,
    as {basis key of the x's at those points: matrix}."""
    if hi is None:
        hi = max(max(b) for b in blocks)
    if lo > hi:
        return {(): _unit(d)}
    spine = sorted(next(b for b in blocks if hi in b))
    args, prev = [], lo - 1
    for v in spine:
        gap = kappa(blocks, k, d, prev + 1, v - 1)
        args.append({key + (e,): _matmul(m, _unit(d, *divmod(e, d)))
                     for key, m in gap.items() for e in range(d * d)})
        prev = v
    return _apply(k[len(spine)], args, d)


def _tree_value(sums, t, n):
    """k_t of an n-vertex tree t as {basis key: matrix}, from freeconv's
    tree tensors."""
    m = sums.tree_sum([t], n)
    return {key: _matrix(val.to_json()) for key, val in m.tensor.items()}


def test_phi_matches_the_nc_formula_tree_by_tree_and_psi_edelman_do_not():
    k = random_series(random.Random("nc-bijection"), D, N, "gi", bound=2)
    maps = _read_maps(k.to_json())
    sums = TreeTensors(D, (k.maps,), (True, True))
    first_failure = {}
    for n in range(1, N + 1):
        for t in enumerate_trees(n):
            k_t = _tree_value(sums, t, n)
            assert k_t, t
            assert k_t == kappa(named_bijection("phi", t), maps, D), t
            for name in ("psi", "edelman"):
                if k_t != kappa(named_bijection(name, t), maps, D):
                    first_failure.setdefault(name, n)
    # at the smallest sizes where the partitions differ from phi's
    assert first_failure == {"psi": 2, "edelman": 3}
