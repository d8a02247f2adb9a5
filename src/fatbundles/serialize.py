"""Structured-text (JSON) serialization of algebras, root data,
certificates and curvature tensors.

Exact values are serialized as integer or "p/q" rational strings so that
round trips never lose precision; certificate files are emitted in a
canonical key order so identical runs are byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .coupling import BlockReport, InvariantTwoForm
from .curvature import CurvatureTensor, TwistorReport
from .duality import AgreementReport
from .exact import frac, vec
from .fatness import FatnessCertificate
from .liealg import LieAlgebra, SubalgebraEmbedding
from .rootdata import RootSystem, SubSystem
from .verdicts import Verdict


def json_float(x):
    """Strict-JSON float: infinities become None."""
    if x is None:
        return None
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        return None
    return x


def frac_str(x) -> str:
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    return Fraction(s)


def vec_to_json(v) -> list[str]:
    return [frac_str(x) for x in v]


def parse_vec(items):
    return vec(Fraction(str(x)) for x in items)


def mat_to_json(m) -> list[list[str]]:
    return [vec_to_json(row) for row in m]


def algebra_to_json(g: LieAlgebra) -> dict:
    out = {
        "name": g.name,
        "family": g.family,
        "params": list(g.params) if g.params else None,
        "dim": g.dim,
        "basis": [mat_to_json(b) for b in g.basis],
    }
    return out


def embedding_to_json(emb: SubalgebraEmbedding) -> dict:
    h_indices = _unit_row_indices(emb.h_basis, emb.ambient.dim)
    out: dict = {"name": emb.name, "dim_h": emb.dim_h, "dim_m": emb.dim_m}
    if h_indices is not None:
        out["h_indices"] = h_indices
    else:
        out["h_coeffs"] = mat_to_json(emb.h_basis)
    if emb.torus_basis is not None:
        out["torus"] = mat_to_json(emb.torus_basis)
    return out


def _unit_row_indices(rows, dim) -> list[int] | None:
    idx = []
    for row in rows:
        support = [(i, x) for i, x in enumerate(row) if x]
        if len(support) != 1 or support[0][1] != 1:
            return None
        idx.append(support[0][0])
    return idx


def rootsystem_to_json(rs: RootSystem) -> dict:
    return {"type": rs.type_label, "rank": rs.rank,
            "roots": [list(r) for r in rs.roots]}


def subsystem_to_json(sub: SubSystem) -> dict:
    return {
        "parent": rootsystem_to_json(sub.parent),
        "member_roots": [list(r) for r in sub.member_roots],
        "forbidden": [list(r) for r in sub.forbidden],
    }


def verdict_to_json(v: Verdict) -> dict:
    out: dict = {"fat": v.status == "fat", "status": v.status}
    if v.witness_root is not None:
        out["witness_root"] = list(v.witness_root)
    if v.null_vector is not None:
        out["null_vector"] = [float(x) for x in v.null_vector]
    if v.witness_vector is not None:
        out["witness_vector"] = vec_to_json(v.witness_vector)
    if v.note:
        out["note"] = v.note
    return out


def certificate_to_json(cert: FatnessCertificate) -> dict:
    out: dict = {
        "instance": cert.instance,
        "Xu": vec_to_json(cert.x_u),
        "verdicts": {
            "roots": cert.verdict_roots,
            "oracle": cert.verdict_oracle,
            "centralizer": cert.verdict_centralizer,
        },
        "min_sv": json_float(cert.min_singular_value),
        "max_sv": json_float(cert.max_singular_value),
        "agreed": cert.agreed,
        "seed": cert.seed,
    }
    if cert.x_u_torus is not None:
        out["Xu_torus"] = vec_to_json(cert.x_u_torus)
    if cert.witness_root is not None:
        out["witness_root"] = list(cert.witness_root)
    if cert.null_vector is not None:
        out["null_vector"] = [float(x) for x in cert.null_vector]
    if cert.centralizer_witness is not None:
        out["centralizer_witness"] = vec_to_json(cert.centralizer_witness)
    if cert.oracle_note:
        out["note"] = cert.oracle_note
    return out


def form_to_json(form: InvariantTwoForm) -> dict:
    return {
        "dim": form.dim,
        "scale": frac_str(form.scale),
        "gram": mat_to_json(form.gram),
    }


def block_report_to_json(rep: BlockReport) -> dict:
    return {
        "fiber_dim": rep.fiber_dim,
        "horizontal_dim": rep.horizontal_dim,
        "cross_block_zero": rep.cross_block_zero,
        "cross_max_abs": rep.cross_max_abs,
        "fiber_min_sv": json_float(rep.fiber_min_sv),
        "horizontal_min_sv": json_float(rep.horizontal_min_sv),
        "horizontal_equals_fatness_gram": rep.horizontal_equals_fatness_gram,
        "fiber_to_horizontal_norm_ratio": rep.fiber_to_horizontal_norm_ratio,
    }


def tensor_to_json(t: CurvatureTensor) -> dict:
    return {
        "n": t.n,
        "R": [float(x) for x in t.R.ravel()],
        "epsilon": t.epsilon,
        "sign": t.sign,
        "seed": t.seed,
        "achieved_epsilon": t.achieved_epsilon,
        "berger_max": t.berger_max,
    }


def tensor_from_json(d: dict) -> CurvatureTensor:
    n = int(d["n"])
    N = 2 * n
    r = np.array(d["R"], dtype=float).reshape((N, N, N, N))
    return CurvatureTensor(
        n=n, R=r, epsilon=float(d.get("epsilon", 0.0)),
        sign=int(d.get("sign", 1)), seed=d.get("seed"),
        achieved_epsilon=d.get("achieved_epsilon"),
        berger_max=d.get("berger_max"))


def twistor_report_to_json(rep: TwistorReport) -> dict:
    return {
        "verdict": rep.verdict,
        "bound": rep.bound,
        "min_diag_margin": rep.min_diag_margin,
        "min_sv": rep.min_singular_value,
        "seed": rep.seed,
        "frames": [
            {"diag_margin": m.diag_margin, "min_sv": m.min_singular_value}
            for m in rep.frames
        ],
    }


def agreement_to_json(rep: AgreementReport) -> dict:
    return {
        "pair": rep.pair_name,
        "samples": rep.total,
        "agreed": rep.agreed,
        "fraction": rep.agreement_fraction,
        "seed": rep.seed,
        "pairs": [
            {
                "tau": vec_to_json(s.tau),
                "noncompact": s.verdict_noncompact,
                "compact": s.verdict_compact,
                "min_sv": [s.min_sv_noncompact, s.min_sv_compact],
            }
            for s in rep.samples
        ],
    }


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline at the
    end, so equal payloads serialize byte-identically."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
