"""Noncrossing partitions of {1..n} and their merge operations.

A partition is stored canonically as a tuple of blocks, each block a sorted
tuple of integers, blocks ordered by their minima.  The empty partition ()
is the unique partition of the empty set.

Operations: concatenation P * Q (shift Q past P), right merge (concatenate,
then join the block of |P| with the block of |P|+|Q|), left merge
(concatenate, then join the block of 1 with the block of |P|+1), the
odd/even interleaving P u Q, and the Kreweras complement, the coarsest Q
whose interleave with P stays noncrossing, computed as a permutation.
"""

from functools import lru_cache


def canonical(blocks):
    """Canonical form: sorted tuples, ordered by block minimum."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))


def partition_size(p):
    return sum(len(b) for b in p)


def is_partition(p, n=None):
    seen = sorted(x for b in p for x in b)
    if n is None:
        n = len(seen)
    return seen == list(range(1, n + 1))


def is_noncrossing(p):
    """No a < b < c < d with a,c in one block and b,d in another."""
    stack = []
    block_of = {}
    for b in p:
        for x in b:
            block_of[x] = b
    for x in sorted(block_of):
        b = block_of[x]
        if stack and stack[-1] is b:
            if x == b[-1]:
                stack.pop()
            continue
        if b in stack:
            return False  # reopening a block that was interrupted
        if x != b[-1]:
            stack.append(b)
    return True


@lru_cache(maxsize=None)
def enumerate_ncp(n):
    """All noncrossing partitions of {1..n}, 0 <= n <= 10."""
    if n < 0 or n > 10:
        raise ValueError("supported sizes are 0..10")
    return _ncp(1, n)


@lru_cache(maxsize=None)
def _ncp(lo, hi):
    """Noncrossing partitions of the interval {lo..hi} (empty tuple if lo > hi)."""
    if lo > hi:
        return ((),)
    out = []
    # choose the block of lo: lo together with some subset lo < m_1 < ... <= hi,
    # splitting the rest into independent gaps
    for rest_blocks in _blocks_from(lo, lo + 1, hi):
        out.append(canonical(rest_blocks))
    return tuple(out)


def _blocks_from(anchor, lo, hi):
    """Partitions where anchor's block continues with elements in {lo..hi}."""
    if lo > hi:
        yield ((anchor,),)
        return
    # anchor's block stops before lo: the gap {lo..hi} is independent
    for p in _ncp(lo, hi):
        yield ((anchor,),) + p
    # or anchor's block next contains m in {lo..hi}
    for m in range(lo, hi + 1):
        for gap in _ncp(lo, m - 1):
            for cont in _blocks_from(m, m + 1, hi):
                merged = ((anchor,) + cont[0],) + cont[1:] + gap
                yield merged


def _shift(p, k):
    return tuple(tuple(x + k for x in b) for b in p)


def _join(p, a, b):
    """Union the block containing a with the block containing b."""
    ba = next(blk for blk in p if a in blk)
    bb = next(blk for blk in p if b in blk)
    if ba is bb:
        return canonical(p)
    rest = [blk for blk in p if blk is not ba and blk is not bb]
    return canonical(rest + [ba + bb])


def merge_op(kind, p, q):
    """Combine two partitions on a shifted union of ground sets.

    kind='concat': P * Q, blocks of Q shifted by |P|.
    kind='right':  P under-merge Q: concat, then union the block of |P| with
                   the block of |P|+|Q|.  Needs both operands nonempty.
    kind='left':   P over-merge Q: concat, then union the block of 1 with the
                   block of |P|+1.  Needs both operands nonempty.
    """
    np_, nq = partition_size(p), partition_size(q)
    if kind == "concat":
        return canonical(p + _shift(q, np_))
    if kind not in ("right", "left"):
        raise ValueError(f"unknown merge kind {kind!r}")
    if np_ == 0 or nq == 0:
        raise ValueError(f"{kind} merge needs nonempty operands")
    glued = p + _shift(q, np_)
    if kind == "right":
        return _join(glued, np_, np_ + nq)
    return _join(glued, 1, np_ + 1)


def interleave(p, q):
    """P on odd positions, Q on even: i -> 2i-1 in P, i -> 2i in Q."""
    np_, nq = partition_size(p), partition_size(q)
    if np_ != nq:
        raise ValueError("interleave needs partitions of the same size")
    odd = tuple(tuple(2 * x - 1 for x in b) for b in p)
    even = tuple(tuple(2 * x for x in b) for b in q)
    return canonical(odd + even)


def is_refinement(p, q):
    """p <= q: every block of p is contained in a block of q."""
    lookup = {}
    for i, b in enumerate(q):
        for x in b:
            lookup[x] = i
    for b in p:
        owners = {lookup.get(x) for x in b}
        if len(owners) != 1 or None in owners:
            return False
    return True


def zero_partition(n):
    return tuple((i,) for i in range(1, n + 1))


def one_partition(n):
    return ((tuple(range(1, n + 1)),) if n else ())


def _cycle_inverse(p):
    """{i: the element before i in its block, cyclically}: the inverse of
    the permutation that reads each block of p as an increasing cycle."""
    if not is_partition(p):
        raise ValueError("blocks must partition {1..n}")
    if not is_noncrossing(p):
        raise ValueError("input partition is crossing")
    return {b[j]: b[j - 1] for b in map(sorted, p) for j in range(len(b))}


def _cycles(perm):
    """The partition whose blocks are the cycles of the permutation perm."""
    blocks, seen = [], set()
    for start in perm:
        if start not in seen:
            block, i = [], start
            while i not in seen:
                seen.add(i)
                block.append(i)
                i = perm[i]
            blocks.append(block)
    return canonical(blocks)


def kreweras(p):
    """Kreweras complement: the coarsest q with interleave(p, q) noncrossing.

    With each block read as an increasing cycle and gamma = (1 2 ... n),
    the complement is the permutation p^{-1} gamma, any size.
    """
    back, n = _cycle_inverse(p), partition_size(p)
    return _cycles({i: back[i % n + 1] for i in back})


def kreweras_inverse(q):
    """The p with kreweras(p) == q: the permutation gamma q^{-1}."""
    back, n = _cycle_inverse(q), partition_size(q)
    return _cycles({i: back[i] % n + 1 for i in back})


# -- serialization and display ------------------------------------------------

def partition_to_json(p):
    return [list(b) for b in p]


def partition_from_json(obj):
    if not (isinstance(obj, list) and all(
            isinstance(b, list) and all(type(x) is int for x in b) for b in obj)):
        raise ValueError("a partition must be a list of blocks, each a list "
                         "of integers")
    p = canonical(obj)
    if not is_partition(p):
        raise ValueError("blocks must partition {1..n}")
    return p


def partition_to_ascii(p):
    """Hooks-and-bars picture, one block per line (output only).

    >>> print(partition_to_ascii(((1, 3), (2,))))
    1 2 3
    +---+
      +
    """
    n = partition_size(p)
    header = " ".join(str(i) for i in range(1, n + 1))
    lines = [header]
    for b in p:
        lo, hi = b[0], b[-1]
        row = []
        for i in range(1, n + 1):
            if i in b:
                row.append("+")
            elif lo < i < hi:
                row.append("-")
            else:
                row.append(" ")
        # column of label i sits at 2(i-1); widen with dashes inside the span
        cells = []
        for i, mark in enumerate(row, start=1):
            cells.append(mark)
            if i < n:
                cells.append("-" if lo <= i < hi else " ")
        lines.append("".join(cells).rstrip())
    return "\n".join(lines)
