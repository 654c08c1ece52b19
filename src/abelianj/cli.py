"""Command-line front end.

Exit codes are a stable contract: 0 all checks pass, 1 a mathematical check
or validation failed, 2 the input was malformed or missing a needed field.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import lab, serialize
from .assoc import IrrationalSpectrumError
from .complex_structures import abelian_cs_report, is_abelian_cs, is_integrable
from .constructions import aff_algebra, double_product, semidirect_r2_family
from .hermitian import (
    ConnectionFlags, complex_projection, connection_flags, curvature_norm_sq,
    is_kahler, levi_civita,
)
from .lie import center, commutator_ideal, derived_and_central_series, is_unimodular
from .linalg import _scalar_str, _split_strs

PASS, FAIL, BAD_INPUT = 0, 1, 2

# each --require property, with the key of the check report it reads
_REQUIRABLE = {
    "solvable": ("series", "solvable"),
    "nilpotent": ("series", "nilpotent"),
    "2step": ("series", "2step"),
    "unimodular": ("unimodular",),
    "integrable": ("J", "integrable"),
    "abelian-j": ("J", "abelian"),
    "hermitian": ("metric", "hermitian"),
    "kahler": ("metric", "kahler"),
}


def _fmt_vector(v, names) -> str:
    """A vector given by its scalar strings, as a signed sum of names."""
    terms = []
    for c, name in zip(v, names):
        if c == "0":
            continue
        sign, c = ("-", c[1:]) if c.startswith("-") else ("+", c)
        terms.append("%s %s" % (sign, name) if c == "1" else "%s %s %s" % (sign, c, name))
    if not terms:
        return "0"
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


def _connection_json(conn):
    """The scalar strings of every slice, read off its split."""
    return [[_split_strs(s, conn.dim) for s in row] for row in conn.split()]


def _yesno(b) -> str:
    return "yes" if b else "no"


def _holds(out, prop) -> bool:
    """The --require property read off the check report; absent is false."""
    v = out
    for key in _REQUIRABLE[prop]:
        v = v.get(key, {})
    return v is True


def _check_lines(out, require):
    """The text rendering of the check report out, with one line per --require
    use, a repeated name repeated."""
    names = out["basis"]
    lines = [
        "dim %d, basis %s" % (out["dim"], " ".join(names)),
        "jacobi: %s" % out["jacobi"],
        "center: dim %d, commutator ideal: dim %d" % (out["center_dim"], out["commutator_dim"]),
        "solvable: %s  nilpotent: %s  two-step solvable: %s  unimodular: %s"
        % tuple(_yesno(v) for v in (*out["series"].values(), out["unimodular"])),
    ]
    if "J" in out:
        lines.append("J: integrable: %s  abelian: %s"
                     % (_yesno(out["J"]["integrable"]), _yesno(out["J"]["abelian"])))
        if "report" in out["J"]:
            lines.append("  structure report: " + "  ".join(
                "%s: %s" % (k, _yesno(v)) for k, v in out["J"]["report"].items()))
    if "metric" in out:
        lines.append("metric: positive definite: yes")
        if "kahler" in out["metric"]:
            lines.append("  hermitian: %s  kahler: %s" % (_yesno(out["metric"]["hermitian"]),
                                                         _yesno(out["metric"]["kahler"])))
    for key, conn in out.get("connections", {}).items():
        lines.append("  %s:" % {"levi_civita": "levi-civita",
                                "first_canonical": "first canonical"}[key])
        entries = ["    nabla_%s %s = %s" % (names[i], names[jx], _fmt_vector(v, names))
                   for i, row in enumerate(conn["tensor"])
                   for jx, v in enumerate(row) if any(c != "0" for c in v)]
        lines.extend(entries or ["    zero connection"])
        lines.append("    flags: metric %s, complex %s, torsion type (1,1) %s"
                     % tuple(_yesno(f) for f in conn["flags"].values()))
        lines.append("    curvature norm^2: %s" % conn["curvature_norm_sq"])
    lines.extend("require %s: %s" % (p, "pass" if out["required"][p] else "FAIL")
                 for p in require)
    return lines


def run_check(args) -> int:
    """Build the check report as one dict; --json emits it, the text output
    and --require read it."""
    inst = serialize.load_instance(args.instance)
    g = inst.algebra
    if (args.complex or "integrable" in args.require
            or "abelian-j" in args.require) and inst.j is None:
        raise serialize.InputError("instance has no 'J' entry")
    if (args.metric or "hermitian" in args.require
            or "kahler" in args.require) and inst.metric is None:
        raise serialize.InputError("instance has no 'metric' entry")

    series = derived_and_central_series(g)
    out = {
        "dim": g.dim,
        "basis": list(g.basis_names),
        "jacobi": "ok",
        "center_dim": center(g).dim,
        "commutator_dim": commutator_ideal(g).dim,
        "series": {"solvable": series.is_solvable, "nilpotent": series.is_nilpotent,
                   "2step": series.is_2step_solvable},
        "unimodular": is_unimodular(g),
    }
    if inst.j is not None:
        out["J"] = {"integrable": is_integrable(g, inst.j),
                    "abelian": is_abelian_cs(g, inst.j)}
        if out["J"]["abelian"]:
            out["J"]["report"] = dataclasses.asdict(abelian_cs_report(g, inst.j))
    if inst.metric is not None:
        # a metric given with J is validated Hermitian at parse time
        out["metric"] = {"hermitian": inst.j is not None}
        if inst.j is not None:
            out["metric"]["kahler"] = is_kahler(inst.triple())
            lc = levi_civita(g, inst.metric)
            fc = complex_projection(inst.j, lc)   # the first canonical connection
            # levi_civita has certified lc metric and torsion-free, so of type (1,1);
            # (D - JDJ) / 2 = D exactly when D commutes with J, so lc is complex iff fc == lc
            lc_flags = ConnectionFlags(True, fc == lc, True)
            out["connections"] = {
                key: {"tensor": _connection_json(conn),
                      "flags": flags._asdict(),
                      "curvature_norm_sq":
                          _scalar_str(*curvature_norm_sq(g, conn).as_integer_ratio())}
                for key, conn, flags in (
                    ("levi_civita", lc, lc_flags),
                    ("first_canonical", fc, connection_flags(g, inst.j, inst.metric, fc)))}
    out["required"] = {p: _holds(out, p) for p in args.require}

    if args.json:
        sys.stdout.write(serialize.emit(out))
    else:
        print("\n".join(_check_lines(out, args.require)))
    return PASS if all(out["required"].values()) else FAIL


def _within_max_dim(dim):
    """Refuse to build an instance that load would refuse: a 'dim' above
    serialize.MAX_DIM."""
    if dim > serialize.MAX_DIM:
        raise serialize.InputError("the constructed 'dim' %d is above the limit of %d"
                                   % (dim, serialize.MAX_DIM))


def run_construct(args) -> int:
    if args.what == "double-product":
        dot, star = serialize.load_algebra(args.dot), serialize.load_algebra(args.star)
        if dot.dim != star.dim:
            raise serialize.InputError("--dot has dim %d but --star has dim %d"
                                       % (dot.dim, star.dim))
        _within_max_dim(2 * dot.dim)
        dp = double_product(dot, star)
        g, j = dp.algebra, dp.j
    elif args.what == "aff":
        a = serialize.load_algebra(args.algebra)
        _within_max_dim(2 * a.dim)
        dp = aff_algebra(a)
        g, j = dp.algebra, dp.j
    else:
        if args.n < 1:
            raise serialize.InputError("--n must be a positive integer")
        _within_max_dim(2 * args.n + 2)
        t_map = serialize.load_matrix(args.t)
        if (t_map.nrows, t_map.ncols) != (2 * args.n, 2 * args.n):
            raise serialize.InputError("--t must be %d x %d for --n %d, not %d x %d"
                                       % (2 * args.n, 2 * args.n, args.n,
                                          t_map.nrows, t_map.ncols))
        g, j = semidirect_r2_family(args.n, t_map)
    if args.out:
        serialize.save_instance(args.out, g, j)
    else:
        sys.stdout.write(serialize.emit(serialize.instance_to_dict(g, j)))
    return PASS


def _decomposition_dict(dec) -> dict:
    return {
        "n": dec.n,
        "s": dec.s,
        "factors": [{
            "idempotent": [_scalar_str(*x.as_integer_ratio()) for x in f.idempotent],
            "norm_sq": _scalar_str(*f.norm_sq.as_integer_ratio()),
            "curvature": _scalar_str(*f.curvature.as_integer_ratio()),
        } for f in dec.factors],
        "center_basis": [_split_strs(s, dec.center.ambient) for s in dec.center.split()],
        "change_of_basis": dec.change_of_basis._row_strs(),
        "model": serialize.instance_to_dict(
            dec.model.algebra, dec.model.j, dec.model.metric),
    }


def run_decompose(args) -> int:
    """Build the decomposition report as one dict; --report emits it, and
    the text output reads it."""
    if args.report:
        serialize._check_writable(args.report)
    inst = serialize.load_instance(args.instance)
    t = inst.triple()
    try:
        dec = lab.kahler_decompose(t)
    except IrrationalSpectrumError as exc:
        print("decomposition failed: %s" % exc, file=sys.stderr)
        return FAIL
    data = _decomposition_dict(dec)
    print("factors: n = %d, center: dim %d (s = %d)"
          % (dec.n, dec.center.dim, dec.s))
    for ix, f in enumerate(data["factors"]):
        print("  %d: r^2 = %s, c = %s, direction = %s"
              % (ix + 1, f["norm_sq"], f["curvature"],
                 _fmt_vector(f["idempotent"], t.algebra.basis_names)))
    if args.report:
        serialize._write_json(args.report, data)
    return PASS


def _print_trial_report(data):
    print("seed %s, %s trials" % (data["seed"], data["trials"]))
    width = max(map(len, data["theorems"]), default=0)
    for name in sorted(data["theorems"]):
        c = data["theorems"][name]
        print("  %-*s  %5d pass  %5d fail" % (width, name, c["pass"], c["fail"]))
    print("counterexamples: %d" % len(data["counterexamples"]))


def run_fuzz(args) -> int:
    if args.trials < 1:
        raise serialize.InputError("--trials must be positive")
    if args.max_dim < 2:
        raise serialize.InputError("--max-dim must be at least 2")
    if args.report:
        serialize._check_writable(args.report)
    rep = lab.theorem_suite(args.seed, args.trials, max_dim=args.max_dim)
    data = lab.report_to_dict(rep)
    _print_trial_report(data)
    if args.report:
        serialize._write_json(args.report, data)
    return FAIL if rep.counterexamples else PASS


def run_report(args) -> int:
    data = serialize._load_json(args.file)
    if not isinstance(data, dict) or not {"seed", "trials", "theorems",
                                          "counterexamples"} <= set(data):
        raise serialize.InputError("not a trial report file")
    theorems = data["theorems"]
    if not (isinstance(theorems, dict) and all(
            isinstance(c, dict) and all(type(c.get(k)) is int for k in ("pass", "fail"))
            for c in theorems.values())):
        raise serialize.InputError("each theorem needs integer 'pass' and 'fail' counts")
    if not isinstance(data["counterexamples"], list):
        raise serialize.InputError("'counterexamples' must be a list")
    _print_trial_report(data)
    return PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every main call."""
    ap = argparse.ArgumentParser(
        prog="abelianj",
        description="Exact computations on Lie algebras with abelian complex "
                    "structures, Hermitian metrics and canonical connections.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance and report its structure")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--complex", action="store_true",
                   help="fail with an input error when J is missing")
    p.add_argument("--metric", action="store_true",
                   help="fail with an input error when the metric is missing")
    p.add_argument("--require", action="append", default=[],
                   choices=_REQUIRABLE, metavar="PROP",
                   help="exit 1 unless the property holds (%s)" % ", ".join(_REQUIRABLE))
    p.set_defaults(func=run_check)

    p = sub.add_parser("construct", help="build instances from products or an acting map")
    csub = p.add_subparsers(dest="what", required=True)
    c = csub.add_parser("double-product", help="double product of a compatible pair")
    c.add_argument("--dot", required=True, help="first product file")
    c.add_argument("--star", required=True, help="second product file")
    c.add_argument("-o", "--out")
    c.set_defaults(func=run_construct)
    c = csub.add_parser("aff", help="affine-motions algebra of one product")
    c.add_argument("--algebra", required=True)
    c.add_argument("-o", "--out")
    c.set_defaults(func=run_construct)
    c = csub.add_parser("semidirect",
                        help="two directions acting on R^{2n} through an "
                             "invertible J-commuting map")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--t", required=True, help="acting map file with a 'matrix' key")
    c.add_argument("-o", "--out")
    c.set_defaults(func=run_construct)

    p = sub.add_parser("decompose-kahler",
                       help="split a Kähler abelian-J instance into curved "
                            "planes and a flat center")
    p.add_argument("--instance", required=True)
    p.add_argument("--report", help="write the decomposition as JSON")
    p.set_defaults(func=run_decompose)

    p = sub.add_parser("fuzz", help="run the randomized structure-theorem suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--max-dim", type=int, default=12,
                   help="largest trial dim, at least 2; trials never exceed dim 12")
    p.add_argument("--report", help="write the trial report as JSON")
    p.set_defaults(func=run_fuzz)

    p = sub.add_parser("report", help="pretty-print a saved trial report")
    p.add_argument("file")
    p.set_defaults(func=run_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except serialize.InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return BAD_INPUT
    except serialize.ValidationFailure as exc:
        print("validation failed: %s" % exc, file=sys.stderr)
        return FAIL
    except ValueError as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
