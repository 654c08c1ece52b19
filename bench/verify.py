"""Output checks, recomputed in sympy from the input files.

Each check returns None when the output is right, else a one-line reason.
They test properties of the answer (theorems, or identities a correct
answer must satisfy), never a stored copy of an earlier output, and they
never use abelianj to re-derive what abelianj printed.
"""
from __future__ import annotations

import json

from sympy import Matrix, Rational, zeros

# the nine structure theorems every fuzz trial reports on
THEOREMS = (
    "abelian_structure_report",
    "hermitian_connection_identities",
    "closed_form_matches_cyclic_identity",
    "zero_first_connection_forces_abelian",
    "twisted_cyclic_under_zero_first_connection",
    "flat_first_connection_forces_abelian",
    "nilpotent_nonabelian_first_connection_curved",
    "kahler_decomposition_complete",
    "kahler_unimodular_forces_abelian",
)


def _q(text) -> Rational:
    return Rational(str(text))


def _square(rows) -> Matrix:
    return Matrix([[_q(e) for e in row] for row in rows])


def structure_constants(inst: dict):
    """c[i][j] as a sympy column vector [e_i, e_j], antisymmetric."""
    n = inst["dim"]
    c = [[zeros(n, 1) for _ in range(n)] for _ in range(n)]
    for item in inst.get("brackets", []):
        i, j = item["pair"]
        v = zeros(n, 1)
        for k, val in item["value"].items():
            v[int(k)] = _q(val)
        c[i][j] = v
        c[j][i] = -v
    return c


def _ad(c, x) -> Matrix:
    """Matrix of y -> [x, y] for a column vector x."""
    n = len(c)
    out = zeros(n, n)
    for i in range(n):
        if x[i] != 0:
            for jx in range(n):
                out[:, jx] += x[i] * c[i][jx]
    return out


def _dims(inst: dict):
    """(center dim, commutator dim) by rank computations."""
    n = inst["dim"]
    c = structure_constants(inst)
    comm = [list(c[i][j]) for i in range(n) for j in range(i + 1, n)]
    comm_dim = Matrix(comm).rank() if comm else 0
    # x is central iff sum_i x_i c[i][j] = 0 for every j
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return n - Matrix(rows).rank(), comm_dim


def _load(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_fuzz(out_text, report_text, seed: int, trials: int):
    data = json.loads(report_text)
    if data.get("seed") != seed or data.get("trials") != trials:
        return "report names seed %r, %r trials" % (data.get("seed"), data.get("trials"))
    if data.get("counterexamples"):
        return "%d counterexamples" % len(data["counterexamples"])
    theorems = data.get("theorems", {})
    if set(theorems) != set(THEOREMS):
        return "theorem set differs: %s" % sorted(theorems)
    for name in THEOREMS:
        if theorems[name] != {"pass": trials, "fail": 0}:
            return "%s: %s" % (name, theorems[name])
    return None


def check_check(out_text, report_text, inst_path):
    inst = _load(inst_path)
    out = json.loads(out_text)
    if out.get("dim") != inst["dim"] or out.get("jacobi") != "ok":
        return "dim or jacobi line wrong"
    center_dim, comm_dim = _dims(inst)
    if (out.get("center_dim"), out.get("commutator_dim")) != (center_dim, comm_dim):
        return "center/commutator dims %s/%s, sympy gives %d/%d" % (
            out.get("center_dim"), out.get("commutator_dim"), center_dim, comm_dim)
    if out.get("J", {}).get("abelian") and "metric" in inst:
        # flat first canonical connection <=> abelian algebra
        norm = _q(out["connections"]["first_canonical"]["curvature_norm_sq"])
        if (norm == 0) != (comm_dim == 0):
            return "first canonical curvature norm %s with commutator dim %d" % (
                norm, comm_dim)
    return None


def check_kahler(out_text, report_text, inst_path, norms):
    """`norms` are the r^2 of the curved planes of the input's block model,
    in descending order."""
    inst = _load(inst_path)
    rep = json.loads(report_text)
    n = len(norms)
    dim = inst["dim"]
    if rep["n"] != n or rep["s"] != dim // 2 - n:
        return "n, s = %s, %s; model has %d, %d" % (rep["n"], rep["s"], n, dim // 2 - n)
    got = [_q(f["norm_sq"]) for f in rep["factors"]]
    if got != [_q(r) for r in norms]:
        return "norms %s, model has %s" % (got, list(norms))
    if any(_q(f["curvature"]) != 1 / _q(f["norm_sq"]) for f in rep["factors"]):
        return "a curvature is not 1/r^2"

    p = _square(rep["change_of_basis"])
    if p.shape != (dim, dim) or p.det() == 0:
        return "change of basis is not invertible"
    model = rep["model"]
    gm, jm = _square(model["metric"]), _square(model["J"])
    if p.T * _square(inst["metric"]) * p != gm:
        return "P^T G P differs from the model metric"
    if p * jm != _square(inst["J"]) * p:
        return "P J_model differs from J P"
    block = {(2 * i, 2 * i + 1): {str(2 * i + 1): "1"} for i in range(n)}
    if {tuple(b["pair"]): b["value"] for b in model["brackets"]} != block:
        return "model brackets are not the curved-plane block model"
    for i, r2 in enumerate(norms):
        for a in (2 * i, 2 * i + 1):
            row = [gm[a, c] for c in range(dim)]
            if row != [_q(r2) if c == a else 0 for c in range(dim)]:
                return "model metric is not r^2 on plane %d" % i
    # [P e_a, P e_b] = P [e_a, e_b]_model, one column block per a
    c_in, c_model = structure_constants(inst), structure_constants(model)
    for a in range(dim):
        unit = zeros(dim, 1)
        unit[a] = 1
        if _ad(c_in, p[:, a]) * p != p * _ad(c_model, unit):
            return "model brackets pushed through P miss the input at e_%d" % a
    return None
