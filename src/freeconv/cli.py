"""Command line front end.

Exit codes: 0 success, 1 a verification (or --check) failure, 2 bad
usage, 3 a domain error such as a crossing partition or a series of the
wrong class.  All JSON output is emitted with sorted keys, so a fixed
command line and seed reproduce the same bytes (timing fields aside).
"""

import argparse
import json
import os
import sys

from .catalan import NAMED_BIJECTIONS, catalan_iso, family_elements, get_family
from .freeprob import (CumulantSpec, MomentSpec, cumulants_from_moments,
                       moments_from_cumulants, product_cumulants,
                       product_cumulants_oracle)
from .multiseries import TruncSeries, first_difference
from .partitions import (is_noncrossing, is_partition, kreweras,
                         partition_from_json, partition_to_ascii,
                         partition_to_json)
from .transforms import boxconv, s_prime, s_transform, u_transform
from .trees import rmap, tree_from_text, tree_to_text
from .verify import run_suite

_KIND_TO_FAMILY = {"trees": "y", "ncp": "ncp1", "pt": "pt1",
                   "rst": "rst1", "lst": "lst1", "ndpf": "ndpf"}


def _listify(x):
    if isinstance(x, tuple):
        return [_listify(c) for c in x]
    return x


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(c) for c in x)
    return x


def _is_nested_list(x):
    return isinstance(x, list) and all(_is_nested_list(c) for c in x)


def _base_family(fam):
    return fam[:-4] if fam.endswith("_rev") else fam


def _encode(fam, x):
    """One element of a family as a JSON-ready value."""
    base = _base_family(fam)
    if base in ("y", "yp"):
        return tree_to_text(x)
    if base.startswith("ncp"):
        return partition_to_json(x)
    if base == "ndpf":
        return list(x)
    return _listify(x)


def _decode(fam, text):
    """Parse --input text into an element, then vet membership."""
    base = _base_family(fam)
    if base in ("y", "yp"):
        s = text.strip()
        if s.startswith('"'):
            s = json.loads(s)
        x = tree_from_text(s)
    elif base.startswith("ncp"):
        x = partition_from_json(json.loads(text))
    elif base == "ndpf":
        x = json.loads(text)
        if not (isinstance(x, list) and all(type(v) is int for v in x)):
            raise ValueError("an ndpf input must be a JSON list of integers")
        x = tuple(x)
    else:
        x = json.loads(text)
        if not _is_nested_list(x):
            raise ValueError(f"a {base} input must be a planar tree: "
                             "JSON lists nested in lists")
        x = _tuplify(x)
    if not get_family(fam).member(x):
        raise ValueError(f"input is not a member of family {fam!r}")
    return x


def _emit(obj):
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _emit_report(report):
    print(json.dumps(report, sort_keys=True, indent=2))


def _load_series(path):
    with open(path) as fh:
        return TruncSeries.from_json(json.load(fh))


def _cmd_enumerate(args):
    fam = _KIND_TO_FAMILY[args.kind]
    level = family_elements(fam, args.n)
    if args.format == "count":
        print(len(level))
    elif args.format == "ascii":
        for x in level:
            if args.kind == "ncp":
                print(partition_to_ascii(x))
                print()
            elif args.kind == "trees":
                print(tree_to_text(x))
            else:
                print(json.dumps(_encode(fam, x), separators=(",", ":")))
    else:
        _emit([_encode(fam, x) for x in level])
    return 0


def _cmd_map(args):
    if args.name:
        if args.src or args.dst:
            raise ValueError("--name excludes --from/--to")
        if args.name not in NAMED_BIJECTIONS:
            raise ValueError(f"unknown bijection {args.name!r}; choose from "
                             + ", ".join(sorted(NAMED_BIJECTIONS)))
        src, dst = NAMED_BIJECTIONS[args.name]
    else:
        if not (args.src and args.dst):
            raise ValueError("need --name or both --from and --to")
        src, dst = args.src, args.dst
    x = _decode(src, args.input)
    _emit(_encode(dst, catalan_iso(src, dst, x)))
    return 0


def _cmd_rmap(args):
    t = _decode("y", args.input)
    print(tree_to_text(rmap(t)))
    return 0


def _cmd_kreweras(args):
    p = partition_from_json(json.loads(args.input))
    if not (is_partition(p) and is_noncrossing(p)):
        raise ValueError("input is not a noncrossing partition")
    _emit(partition_to_json(kreweras(p)))
    return 0


def _cmd_convolve(args):
    f = _load_series(args.f)
    g = _load_series(args.g)
    if args.order is not None:
        f, g = f.truncate(args.order), g.truncate(args.order)
    _emit(boxconv(args.variant, f, g).to_json())
    return 0


def _cmd_transform(args):
    f = _load_series(args.f)
    out = {"stransform": s_transform, "utransform": u_transform,
           "sprime": s_prime}[args.command](f)
    _emit(out.to_json())
    return 0


def _cmd_cumulants(args):
    m = MomentSpec(_load_series(args.moments))
    _emit(cumulants_from_moments(m).to_json())
    return 0


def _cmd_moments(args):
    k = CumulantSpec(_load_series(args.cumulants))
    _emit(moments_from_cumulants(k).to_json())
    return 0


def _cmd_product(args):
    ka = CumulantSpec(_load_series(args.ka))
    kb = CumulantSpec(_load_series(args.kb))
    kab = product_cumulants(ka, kb, args.order)
    if not args.check:
        _emit(kab.to_json())
        return 0
    oracle = product_cumulants_oracle(ka, kb, args.order)
    diff = first_difference(kab.series, oracle.series)
    payload = {"product": kab.to_json(),
               "check": {"statement": "boxed convolution == tree-sum oracle",
                         "status": "pass" if diff is None else "fail"}}
    if diff is not None:
        payload["check"]["witness"] = diff
    _emit(payload)
    return 0 if diff is None else 1


def _cmd_verify(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("FREECONV_SEED", "0"))
    report = run_suite(args.suite, order=args.order, dim=args.dim,
                       trials=args.trials, seed=seed)
    _emit_report(report)
    return 0 if report["status"] == "pass" else 1


def _positive_int(text):
    """The type of --order, --dim and --trials: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Catalan combinatorics and operator-valued function "
                    "series, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list one level of a family")
    p.add_argument("--kind", required=True, choices=sorted(_KIND_TO_FAMILY))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--format", default="json",
                   choices=("json", "ascii", "count"))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection between families")
    p.add_argument("--name")
    p.add_argument("--from", dest="src", metavar="FAMILY")
    p.add_argument("--to", dest="dst", metavar="FAMILY")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("rmap", help="double a binary tree")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_rmap)

    p = sub.add_parser("kreweras", help="complement a noncrossing partition")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_kreweras)

    p = sub.add_parser("convolve", help="boxed convolution of two series")
    p.add_argument("--variant", required=True,
                   choices=("box", "line", "red", "redred"))
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--order", type=int)
    p.set_defaults(func=_cmd_convolve)

    for name, blurb in (("stransform", "S-transform of a series"),
                        ("utransform", "U-transform of a series"),
                        ("sprime", "primed S-transform of a series")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--f", required=True)
        p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("cumulants", help="cumulants from moments")
    p.add_argument("--moments", required=True)
    p.set_defaults(func=_cmd_cumulants)

    p = sub.add_parser("moments", help="moments from cumulants")
    p.add_argument("--cumulants", required=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("product", help="cumulants of a product of free "
                                       "elements")
    p.add_argument("--ka", required=True)
    p.add_argument("--kb", required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--check", action="store_true",
                   help="also compare against the tree-sum oracle")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True,
                   choices=("transforms", "freeprob", "bijections", "operad",
                            "sab-search", "all"))
    p.add_argument("--order", type=_positive_int)
    p.add_argument("--dim", type=_positive_int)
    p.add_argument("--trials", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError as exc:
        print(f"error: input nested too deeply: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
