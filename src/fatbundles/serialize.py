"""JSON encoding of certificate payloads.

Exact values are written as integer or "p/q" rational strings, parsed
back by ``parse_vec``, and floats at 12 significant digits; certificate
files are emitted in a canonical key order so identical runs are
byte-identical.  ``SCHEMA_VERSION`` numbers the payload format.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .coupling import BlockReport, InvariantTwoForm
from .curvature import TwistorReport
from .duality import AgreementReport
from .exact import frac, vec
from .fatness import FatnessCertificate

SCHEMA_VERSION = 3


def json_float(x):
    """Strict-JSON float at 12 significant digits, so the last bits of a
    platform's float arithmetic stay out of the bytes (they still move at
    a rounding boundary).  NaN and the infinities become None."""
    if x is None or not math.isfinite(x := float(x)):
        return None
    return float(f"{x:.12g}")


def frac_str(x) -> str:
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec_to_json(v) -> list[str]:
    return [frac_str(x) for x in v]


def parse_vec(items):
    return vec(Fraction(str(x)) for x in items)


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
        "well_conditioned": cert.well_conditioned,
        "agreed": cert.agreed,
        "seed": cert.seed,
    }
    if cert.x_u_torus is not None:
        out["Xu_torus"] = vec_to_json(cert.x_u_torus)
    if cert.witness_root is not None:
        out["witness_root"] = list(cert.witness_root)
    if cert.null_vector is not None:
        out["null_vector"] = vec_to_json(cert.null_vector)
    if cert.centralizer_witness is not None:
        out["centralizer_witness"] = vec_to_json(cert.centralizer_witness)
    if cert.oracle_note:
        out["note"] = cert.oracle_note
    return out


def form_to_json(form: InvariantTwoForm) -> dict:
    return {
        "dim": form.dim,
        "scale": frac_str(form.scale),
        "gram": [[frac_str(Fraction(row[j], form.den)) if j in row else "0"
                  for j in range(form.dim)] for row in form.gram],
    }


def block_report_to_json(rep: BlockReport) -> dict:
    return {
        "fiber_dim": rep.fiber_dim,
        "horizontal_dim": rep.horizontal_dim,
        "cross_block_zero": rep.cross_block_zero,
        "cross_max_abs": json_float(rep.cross_max_abs),
        "fiber_min_sv": json_float(rep.fiber_min_sv),
        "horizontal_min_sv": json_float(rep.horizontal_min_sv),
        "horizontal_equals_fatness_gram": rep.horizontal_equals_fatness_gram,
        "fiber_to_horizontal_norm_ratio": json_float(
            rep.fiber_to_horizontal_norm_ratio),
    }


def twistor_report_to_json(rep: TwistorReport) -> dict:
    return {
        "verdict": rep.verdict,
        "bound": json_float(rep.bound),
        "min_diag_margin": json_float(rep.min_diag_margin),
        "min_sv": json_float(rep.min_singular_value),
        "seed": rep.seed,
        "frames": [
            {"diag_margin": json_float(m.diag_margin),
             "min_sv": json_float(m.min_singular_value)}
            for m in rep.frames
        ],
    }


def agreement_to_json(rep: AgreementReport) -> dict:
    return {
        "pair": rep.pair_name,
        "samples": rep.total,
        "agreed": rep.agreed,
        "fraction": json_float(rep.agreement_fraction),
        "seed": rep.seed,
        "pairs": [
            {
                "tau": vec_to_json(s.tau),
                "noncompact": s.verdict_noncompact,
                "compact": s.verdict_compact,
                "min_sv": [json_float(s.min_sv_noncompact),
                           json_float(s.min_sv_compact)],
            }
            for s in rep.samples
        ],
    }


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline at the
    end, so equal payloads serialize byte-identically.  A NaN or infinite
    float is not JSON and raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
