"""The report builder, the structural verification suites, and run_suite().

Every suite report is built by one class, Report, and Report alone decides
whether a check passed and which witness it keeps.  A suite records its
checks by id and then calls finish(), which returns::

    {"suite", "checks": [{"id", "statement", "status", "params", "witness"?}],
     "seed", "order", "dim", "trials", "status", "elapsed"}

A check passes until a record of its id fails; the first failure sets its
status to "fail" and stores the witness, and later records of the id change
nothing.  A witness given as a function of no arguments is called only
then, so a loop over many items builds no witness while they pass.
compare() records a series equality, keeping the first differing entry
(multiseries.first_difference) as the witness when the two sides differ.
A check that loops over many items registers its id, statement and params
before the loop, so it keeps its place in the report and passes when the
loop is empty, then records every item's outcome: the witness of a
failing check is its first failing item.  A sub-check that presumes an
earlier one (decomposing an element presumes it is a member) skips the
items that failed it.

The fields between "checks" and "status" are the ones the suite passed to
Report, so freeprob.speicher_relation_check reports "seed", "order" and
"dim" only.  "status" is "fail" when any check failed, and "elapsed" is the
only field that varies between runs with the same arguments.  A check
that asserts nothing, like sab_search's scan, goes through note(): it
passes and carries any hits as its witness.

The series-level suites live next to the code they exercise
(transforms.verify_transform_identities, freeprob.verify_freeprob_identities,
freeprob.sab_search); this module adds the two purely structural suites and
run_suite(), which the command line calls.
"""

import random
import time

from .algebra import random_element_from
from .catalan import (FAMILIES, NAMED_BIJECTIONS, catalan_iso, family_elements,
                      get_family, named_bijection, verify_diagram)
from .multiseries import (first_difference, operad_evaluator, random_series,
                          tree_eval, word_action)
from .partitions import enumerate_ncp, interleave, kreweras
from .trees import enumerate_trees, rmap, tree_to_text


def _catalan(n):
    row = [1]
    for _ in range(n):
        row.append(sum(a * b for a, b in zip(row, reversed(row))))
    return row[n]


class Report:
    """Collects the checks of one suite run; the clock starts at creation.

    `fields` are the report's run parameters, kept in the order given.
    """

    def __init__(self, suite, **fields):
        self.suite = suite
        self.fields = fields
        self.checks = {}
        self.started = time.time()

    def record(self, cid, statement, ok, witness=None, params=None):
        """Record one outcome of check `cid`; returns the check's dict.

        The first record of an id fixes its statement and params.  A
        callable witness is called only when its record is the check's
        first failure, so a loop can hand one to every item and build
        nothing while the items pass.
        """
        check = self.checks.get(cid)
        if check is None:
            check = self.checks[cid] = {"id": cid, "statement": statement,
                                        "status": "pass",
                                        "params": params or {}}
        if not ok and check["status"] == "pass":
            check["status"] = "fail"
            check["witness"] = witness() if callable(witness) else witness
        return check

    def note(self, cid, statement, witness, params=None):
        """Record check `cid`, which asserts nothing: it passes, and keeps
        `witness` only when the witness is non-empty.  Returns the check's
        dict."""
        check = self.record(cid, statement, True, None, params)
        if witness:
            check["witness"] = witness
        return check

    def compare(self, cid, statement, lhs, rhs, params=None):
        """Record whether the series lhs and rhs are equal; returns the
        check's dict.  Only a difference calls first_difference."""
        same = lhs == rhs
        witness = None if same else first_difference(lhs, rhs)
        return self.record(cid, statement, same, witness, params)

    def finish(self):
        checks = list(self.checks.values())
        return {"suite": self.suite, "checks": checks, **self.fields,
                "status": "pass" if all(c["status"] == "pass" for c in checks)
                else "fail",
                "elapsed": round(time.time() - self.started, 3)}


def verify_bijection_identities(n_max=6, seed=0):
    """Exhaustive checks on the Catalan families and the maps between them.

    Everything here is deterministic; the seed is only echoed into the
    report so all suites share one shape.
    """
    report = Report("bijections", seed=seed, order=n_max, dim=None,
                    trials=None)
    record = report.record

    for fam in sorted(FAMILIES):
        f = get_family(fam)
        cid = f"round-trip-{fam}"
        statement = ("levels have Catalan size and compose/decompose invert "
                     f"each other for family {fam!r}")
        record(cid, statement, True, None, {"n_max": n_max})
        members = []
        for n in range(n_max + 1):
            level = family_elements(fam, n)
            record(cid, statement,
                   len(level) == _catalan(n) and len(set(level)) == len(level),
                   {"n": n, "count": len(level)})
            fits = [f.member(x) and f.size(x) == n for x in level]
            for x, fit in zip(level, fits):
                record(cid, statement, fit,
                       lambda: {"n": n, "element": str(x)})
            members.append([x for x, fit in zip(level, fits) if fit])
            if not n:
                continue  # the unit does not decompose
            for x in members[n]:
                a, b = f.decompose(x)
                record(cid, statement,
                       f.compose(a, b) == x and f.size(a) + f.size(b) + 1 == n,
                       lambda: {"n": n, "element": str(x)})
        # decompose must also invert compose pairwise, not just on the
        # elements the enumeration happened to build
        for k in range(n_max):
            for l in range(n_max - k):
                for x in members[k]:
                    for y in members[l]:
                        record(cid, statement,
                               f.decompose(f.compose(x, y)) == (x, y),
                               lambda: {"left": str(x), "right": str(y)})

    for name, (src, dst) in sorted(NAMED_BIJECTIONS.items()):
        target = get_family(dst)
        cid = f"bijection-{name}"
        statement = (f"{name}: {src} -> {dst} is a size-preserving "
                     "bijection with inverse recovered through the "
                     "composition structure")
        record(cid, statement, True, None, {"n_max": n_max})
        for n in range(n_max + 1):
            level = family_elements(src, n)
            images = [named_bijection(name, x) for x in level]
            fits = [target.member(z) and target.size(z) == n for z in images]
            for x, z, fit in zip(level, images, fits):
                record(cid, statement, fit,
                       lambda: {"n": n, "input": str(x), "image": str(z)})
            record(cid, statement, set(images) == set(family_elements(dst, n)),
                   {"n": n, "reason": "not onto the level"})
            for x, z, fit in zip(level, images, fits):
                if fit:
                    record(cid, statement, catalan_iso(dst, src, z) == x,
                           lambda: {"n": n, "input": str(x),
                                    "reason": "inverse does not return"})

    for diagram_id in (1, 2, 3):
        # the statement comes with the square's first level, n = 0
        for n in range(n_max + 1):
            diagram = verify_diagram(diagram_id, n)
            record(f"diagram-{diagram_id}", diagram["statement"],
                   diagram["status"] == "pass", diagram["witness"],
                   {"n_max": n_max})

    cid = "phi-rmap-interleave-image"
    statement = "{phi(rmap(t))} == {interleave(P, K(P))} as sets at every size"
    record(cid, statement, True, None, {"n_max": min(n_max, 5)})
    for n in range(min(n_max, 5) + 1):
        doubled = {named_bijection("phi", rmap(t)) for t in enumerate_trees(n)}
        paired = {interleave(p, kreweras(p)) for p in enumerate_ncp(n)}
        record(cid, statement, doubled == paired, {"n": n})

    phis = [(t, named_bijection("phi", t)) for t in enumerate_trees(2)]
    record("phi-rmap-not-pointwise",
           "phi(rmap(t)) != interleave(phi(t), K(phi(t))) for some size-2 t",
           any(named_bijection("phi", rmap(t)) != interleave(p, kreweras(p))
               for t, p in phis), None, {"n": 2})

    cid = "kreweras-dual-path"
    statement = ("kreweras(P) == catalan_iso('ncp2', 'ncp1', P) and K o K "
                 "permutes every level")
    record(cid, statement, True, None, {"n_max": n_max})
    for n in range(n_max + 1):
        level = enumerate_ncp(n)
        for p in level:
            record(cid, statement,
                   kreweras(p) == catalan_iso("ncp2", "ncp1", p),
                   lambda: {"n": n, "partition": str(p)})
        record(cid, statement,
               set(kreweras(kreweras(p)) for p in level) == set(level),
               {"n": n, "reason": "K o K not onto"})

    return report.finish()


def verify_operad_identities(N=5, d=2, trials=5, seed=0):
    """Check the word recursion against direct tree evaluation.

    For series of the shape identity * multiplicative, evaluating a tree
    vertex by vertex agrees with flattening the tree into a word of the
    tensor algebra first; the word action also satisfies three mixed
    associativity laws with concatenation.
    """
    rng = random.Random(seed)
    report = Report("operad", seed=seed, order=N, dim=d, trials=trials)
    record = report.record

    for trial in range(trials):
        params = {"trial": trial}
        f = random_series(rng, d, N, "gi", bound=2)
        evaluate = operad_evaluator(f)

        for n in range(1, N + 1):
            for t in enumerate_trees(n):
                args = tuple(random_element_from(rng, 2, d) for _ in range(n))
                lhs = evaluate(t, args)
                rhs = tree_eval(f, t, args)
                record("word-recursion",
                       "operad_eval(f, t, xs) == tree_eval(f, t, xs) for "
                       "every tree",
                       lhs == rhs,
                       {"tree": tree_to_text(t), "n": n}, params)

        u = tuple(random_element_from(rng, 2, d)
                  for _ in range(rng.randint(1, N)))
        v = tuple(random_element_from(rng, 2, d)
                  for _ in range(rng.randint(1, N)))
        w = tuple(random_element_from(rng, 2, d)
                  for _ in range(rng.randint(1, N)))
        record("action-associative",
               "word_action(f, word_action(f, u, v), w) == "
               "word_action(f, u, word_action(f, v, w))",
               word_action(f, word_action(f, u, v), w)
               == word_action(f, u, word_action(f, v, w)),
               {"lengths": [len(u), len(v), len(w)]}, params)
        record("concat-associative",
               "(u + v) + w == u + (v + w) on words",
               (u + v) + w == u + (v + w),
               {"lengths": [len(u), len(v), len(w)]}, params)
        record("action-concat",
               "word_action(f, u, v) + w == word_action(f, u, v + w)",
               word_action(f, u, v) + w == word_action(f, u, v + w),
               {"lengths": [len(u), len(v), len(w)]}, params)

    return report.finish()


def run_suite(name, order=None, dim=None, trials=None, seed=None):
    """Run one named verification suite and return its report dict.

    A knob left as None is not passed on, so the suite's own default
    applies and "all" runs every suite at its natural strength; any other
    value, zero included, is passed on as given.
    """
    from .freeprob import sab_search, verify_freeprob_identities
    from .transforms import verify_transform_identities

    seed = 0 if seed is None else seed
    knobs = {key: value for key, value in (("N", order), ("d", dim),
                                           ("trials", trials))
             if value is not None}
    series_suites = {"transforms": verify_transform_identities,
                     "freeprob": verify_freeprob_identities,
                     "operad": verify_operad_identities,
                     "sab-search": sab_search}
    if name in series_suites:
        return series_suites[name](seed=seed, **knobs)
    if name == "bijections":
        if order is None:
            return verify_bijection_identities(seed=seed)
        return verify_bijection_identities(n_max=order, seed=seed)
    if name == "all":
        report = Report("all", seed=seed, order=order, dim=dim, trials=trials)
        for sub in ("transforms", "freeprob", "bijections", "operad"):
            for c in run_suite(sub, order, dim, trials, seed)["checks"]:
                report.record(f"{sub}:{c['id']}", c["statement"],
                              c["status"] == "pass", c.get("witness"),
                              c["params"])
        return report.finish()
    raise ValueError(f"unknown suite {name!r}")
