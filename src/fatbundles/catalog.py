"""Instance catalog: named bundle configurations, instance resolution,
and the per-instance runners used by both the CLI and the test suite."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from . import __version__
from . import coupling as cp
from . import curvature as cv
from . import duality as du
from . import serialize as sz
from .errors import CriteriaDisagree, FatBundleError
from .exact import vec
from .fatness import certify, sample_rational_vectors
from .liealg import (
    LieAlgebra,
    SubalgebraEmbedding,
    build_algebra,
    so_block_embedding,
    torus_embedding,
    u_block_embedding,
)
from .rootdata import (
    RootSystem,
    SubSystem,
    build_root_system,
    detect_subsystem,
    find_fat_shift,
    root_system_for,
    shift_values,
    strict_signs,
    subsystem_from_members,
)


VERDICT_KINDS = ("roots", "oracle", "centralizer", "coupling", "pinch")
RUN_KINDS = VERDICT_KINDS + ("dual", "shift")


def _rationals(v) -> bool:  # a list that serialize.parse_vec reads, in budget
    try:  # a string's exponent is checked before Fraction expands it
        return type(v) in (list, tuple) and all(
            type(x) is not str or len(x) <= 1000
            and abs(int(x.lower().partition("e")[2] or 0)) <= 1000 for x in v
        ) and sz.parse_vec(v) is not None
    except (ValueError, ZeroDivisionError):
        return False


def _all(ok):  # a list, never a string, of items that pass ok
    return lambda v: type(v) in (list, tuple) and all(map(ok, v))


TEXT = ("a string", lambda v: type(v) is str)
RATIONAL_STRINGS = "strings of <= 1000 characters with |exponent| <= 1000"
SAMPLES = ("an integer in 0..10000", lambda v: type(v) is int and 0 <= v <= 10**4)
PARAMS = ("a list of positive integers with sum <= 32",
          lambda v: _all(lambda x: type(x) is int and x > 0)(v) and sum(v) <= 32)
# The catalog entry contract: each object's closed key set, and each key's
# rule (the error text) and check; null means absent.  The ranges are the
# size budget: dim so(32) = 496, the pinch sweep holds every frame at once
# and R has (2n)^4 entries, and the shift is one Fourier-Motzkin solve
# over a constraint per forbidden root pair (64 at B_8).
ENTRY = {
    "id": ("a plain file name", lambda v: type(v) is str and v not in ("", ".", "..")
           and not any(c in v for c in "/\\\0")),
    "g": {"family": TEXT, "params": PARAMS},
    "h": {"type": TEXT, "params": PARAMS},
    "Xu": (f"a list of rationals ({RATIONAL_STRINGS})", _rationals),
    "run": ("a list of run kinds", _all(RUN_KINDS.__contains__)),
    "expect": ('"fat" or "not_fat"', ("fat", "not_fat").__contains__),
    "seed": ("an integer", lambda v: type(v) is int),
    "tol": ("a positive finite number",
            lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max),
    "samples": SAMPLES,
    "pinch": {
        "n": ("an integer in 1..8", lambda v: type(v) is int and 1 <= v <= 8),
        "epsilon": ("a finite number", lambda v: type(v) is int
                    or type(v) is float and math.isfinite(v)),
        "sign": ('"+", "-", 1 or -1', lambda v: (type(v), v) in (
            (str, "+"), (str, "-"), (int, 1), (int, -1))),
        "frames": ("an integer <= 10000", lambda v: type(v) is int and v <= 10**4),
    },
    "shift": {
        "type": TEXT,
        "rank": ("an integer in 1..8", lambda v: type(v) is int and 1 <= v <= 8),
        "member_roots": ("a list of integer lists", _all(_all(lambda x: type(x) is int))),
        "vertices": (f"a list of rational lists ({RATIONAL_STRINGS})", _all(_rationals)),
        "expect_shift": ("true", lambda v: v is True),
    },
    "dual": {"samples": SAMPLES},
}
REQUIRED = ("id", "g.family", "g.params", "h.type", "h.params", "shift.vertices")


def _checked(obj, table: dict, path: str = "") -> dict:
    """obj less its null keys, once its keys and values keep to table."""
    if type(obj) is not dict:
        raise ValueError(f"{path[:-1] or 'entry'} must be an object, got {obj!r}")
    if unknown := [key for key in obj if key not in table]:
        raise ValueError(f"unknown key {path}{unknown[0]} = {obj[unknown[0]]!r}")
    out = {}
    for key, rule in table.items():
        if obj.get(key) is None:
            if path + key in REQUIRED:
                raise ValueError(f"{path}{key} is required")
        elif type(rule) is dict:
            out[key] = _checked(obj[key], rule, f"{path}{key}.")
        elif rule[1](obj[key]):
            out[key] = obj[key]
        else:
            raise ValueError(f"{path}{key} must be {rule[0]}, got {obj[key]!r}")
    return out


def check_id(iid) -> str:
    """An instance id names its certificate file: ENTRY's plain file name."""
    return _checked({"id": iid}, ENTRY)["id"]


@dataclass(frozen=True)
class InstanceSpec:
    """One catalog entry: which bundle, which covector, which checks."""

    id: str
    g_family: str | None = None
    g_params: tuple | None = None
    h_type: str | None = None
    h_params: tuple | None = None
    xu_torus: tuple | None = None
    run: tuple = ("roots", "oracle", "centralizer")
    expect: str | None = None
    seed: int = 0
    tol: float = 1e-9
    samples: int = 0
    pinch: dict | None = None
    shift: dict | None = None
    dual: dict | None = None

    def to_json(self) -> dict:
        out: dict = {"id": self.id, "run": list(self.run), "seed": self.seed,
                     "tol": self.tol}
        if self.g_family:
            out["g"] = {"family": self.g_family, "params": list(self.g_params)}
        if self.h_type:
            out["h"] = {"type": self.h_type, "params": list(self.h_params)}
        if self.xu_torus is not None:
            out["Xu"] = [sz.frac_str(x) for x in self.xu_torus]
        if self.samples:
            out["samples"] = self.samples
        for key, val in (("expect", self.expect), ("pinch", self.pinch),
                         ("shift", self.shift), ("dual", self.dual)):
            if val is not None:
                out[key] = val
        return out

    @classmethod
    def from_json(cls, d) -> "InstanceSpec":
        d = _checked(d, ENTRY)
        if ("g" in d) != ("h" in d):
            raise ValueError("h is required with g" if "g" in d else
                             "g is required with h")
        g, h, xu = d.pop("g", {}), d.pop("h", {}), d.pop("Xu", None)
        spec = cls(**d, g_family=g.get("family"), h_type=h.get("type"),
                   g_params=tuple(g.get("params", ())) if g else None,
                   h_params=tuple(h.get("params", ())) if h else None,
                   xu_torus=None if xu is None else sz.parse_vec(xu))
        spec = replace(spec, run=tuple(spec.run), tol=float(spec.tol))
        if spec.expect and not set(VERDICT_KINDS) & set(spec.run):
            raise ValueError(f"run must give expect a verdict, got {list(spec.run)}")
        if "shift" in spec.run and spec.shift is None:
            raise ValueError("shift is required when run has shift")
        return spec


@dataclass
class ResolvedInstance:
    spec: InstanceSpec
    g: LieAlgebra | None = None
    emb: SubalgebraEmbedding | None = None
    rs: RootSystem | None = None
    subsystem: SubSystem | None = None
    x_u: tuple | None = None


@functools.lru_cache(maxsize=None)
def make_pair(g_family: str, g_params: tuple, h_type: str, h_params: tuple
              ) -> tuple[LieAlgebra, SubalgebraEmbedding]:
    """Construct (and cache) an ambient algebra with an embedded h."""
    g = build_algebra(g_family, g_params)
    if h_type == "so":
        emb = so_block_embedding(g, h_params[0])
    elif h_type == "u":
        emb = u_block_embedding(g, h_params[0])
    elif h_type == "torus":
        emb = torus_embedding(g, h_params[0])
    else:
        raise FatBundleError(f"unsupported subalgebra type {h_type!r}")
    return g, emb


@functools.lru_cache(maxsize=None)
def make_subsystem(g_family: str, g_params: tuple, h_type: str,
                   h_params: tuple) -> SubSystem:
    g, emb = make_pair(g_family, g_params, h_type, h_params)
    rs = root_system_for(g)
    return detect_subsystem(g, emb, rs)


@functools.lru_cache(maxsize=None)
def make_dual(emb: SubalgebraEmbedding, sub: SubSystem) -> tuple:
    """Construct (and cache) the dual pair of a ``make_pair`` embedding,
    with h and its sub-root-systems in both algebras; only the side that is
    not emb's algebra (keeping emb and its make_subsystem sub) is built."""
    pair = du.dualize(emb.ambient, du.standard_involution(emb.ambient))
    embs = du.pair_embeddings(pair, emb.h_sparse, emb.torus_sparse, emb)
    return pair, *embs, du.dual_subsystems(pair, *embs, sub.parent,
                                           [sub if e is emb else None for e in embs])


def resolve(spec: InstanceSpec) -> ResolvedInstance:
    inst = ResolvedInstance(spec=spec)
    if spec.g_family:
        g, emb = make_pair(spec.g_family, tuple(spec.g_params),
                           spec.h_type, tuple(spec.h_params))
        inst.g, inst.emb = g, emb
        wants_roots = "roots" in spec.run or "dual" in spec.run
        torus_rank = len(emb.torus_basis) if emb.torus_basis is not None else 0
        if wants_roots and torus_rank:
            rs = root_system_for(g)
            if rs.rank == torus_rank:
                inst.rs = rs
                inst.subsystem = make_subsystem(
                    spec.g_family, tuple(spec.g_params), spec.h_type,
                    tuple(spec.h_params))
        if spec.xu_torus is not None:
            inst.x_u = emb.torus_vector(spec.xu_torus)
    return inst


def run_instance(spec: InstanceSpec) -> tuple[bool, dict]:
    """Execute one instance; returns (passed, certificate payload).

    Failures, whatever their exception type, are captured in the payload,
    never raised, so a batch run can isolate a broken instance.
    """
    payload: dict = {"id": spec.id, "schema_version": sz.SCHEMA_VERSION,
                     "version": __version__, "spec": spec.to_json()}
    try:
        inst = resolve(spec)
        passed = True
        if {"roots", "oracle", "centralizer"} & set(spec.run):
            passed &= _run_certification(spec, inst, payload)
        if "coupling" in spec.run:
            passed &= _run_coupling(spec, inst, payload)
        if "dual" in spec.run:
            passed &= _run_dual(spec, inst, payload)
        if "pinch" in spec.run:
            passed &= _run_pinch(spec, payload)
        if "shift" in spec.run:
            passed &= _run_shift(spec, payload)
        payload["passed"] = bool(passed)
        return bool(passed), payload
    except CriteriaDisagree as exc:
        payload["passed"] = False
        payload["error"] = f"criteria disagree: {exc}"
        if exc.certificate is not None:
            payload["certificate"] = sz.certificate_to_json(exc.certificate)
        return False, payload
    except Exception as exc:
        payload["passed"] = False
        payload["error"] = f"{type(exc).__name__}: {exc}"
        return False, payload


def _run_certification(spec, inst, payload) -> bool:
    if inst.x_u is None:
        raise FatBundleError(f"{spec.id}: certification needs an Xu, g and h")
    cert = certify(inst.g, inst.emb, inst.x_u, subsystem=inst.subsystem,
                   tol=spec.tol, instance=spec.id, seed=spec.seed)
    payload["certificate"] = sz.certificate_to_json(cert)
    ok = cert.agreed
    if spec.expect in ("fat", "not_fat"):
        ok = ok and (cert.fat == (spec.expect == "fat"))
    if spec.samples:
        rank = len(inst.emb.torus_basis)
        n_fat = 0
        for tau in sample_rational_vectors(rank, spec.samples, spec.seed):
            c = certify(inst.g, inst.emb, inst.emb.torus_vector(tau),
                        subsystem=inst.subsystem, tol=spec.tol,
                        instance=spec.id, seed=spec.seed)
            n_fat += c.fat
        payload["batch"] = {"samples": spec.samples, "fat": n_fat,
                            "not_fat": spec.samples - n_fat}
    return ok


def _run_coupling(spec, inst, payload) -> bool:
    if inst.x_u is None:
        raise FatBundleError(f"{spec.id}: coupling needs an Xu, g and h")
    bi = cp.bundle_instance(inst.g, inst.emb, inst.x_u)
    form = cp.instance_form(bi)
    rep = cp.verify_block_structure(form)
    residual = cp.ce_closedness(form)
    info: dict = {
        "form": sz.form_to_json(form),
        "blocks": sz.block_report_to_json(rep),
        "closedness_residual": sz.frac_str(residual),
        "isotropy_in_h": bi.isotropy_in_h,
    }
    ok = rep.cross_block_zero and rep.horizontal_equals_fatness_gram
    ok = ok and residual == 0
    if form.dim % 2 == 0:
        min_sv, pf = cp.nondegenerate_and_top_power(form)
        info["min_sv"] = sz.json_float(min_sv)
        info["pfaffian_abs"] = sz.json_float(pf)
        if spec.expect in ("fat", "not_fat"):
            # Exact: the form is nondegenerate iff its Gram is invertible.
            ok = ok and (form.gram_det != 0) == (spec.expect == "fat")
    payload["coupling"] = info
    return ok


def _run_dual(spec, inst, payload) -> bool:
    if inst.rs is None:
        raise FatBundleError(f"{spec.id}: dual needs g, h and a full-rank torus")
    samples = (spec.dual or {}).get("samples", 200)
    pair, emb_nc, emb_c, subs = make_dual(inst.emb, inst.subsystem)
    rep = du.compare_fat_sets(pair, emb_nc, emb_c, subs, samples, spec.seed, tol=spec.tol)
    payload["dual"] = sz.agreement_to_json(rep)
    return rep.agreement_fraction == 1.0


def _run_pinch(spec, payload) -> bool:
    params = spec.pinch or {}
    n = params.get("n", 2)
    eps = params.get("epsilon", 0.9 * 3 / (2 * n + 1))
    sign = params.get("sign", "+")
    frames = params.get("frames", 100)
    tensor = cv.random_pinched(n, eps, sign, spec.seed)
    rep = cv.twistor_fatness(tensor, num_frames=frames, seed=spec.seed,
                             tol=spec.tol)
    berger = cv.berger_check(tensor, eps)
    payload["pinch"] = {
        "tensor": {"n": n, "epsilon": sz.json_float(eps),
                   "sign": tensor.sign, "seed": spec.seed,
                   "achieved_epsilon": sz.json_float(tensor.achieved_epsilon),
                   "berger_max": sz.json_float(tensor.berger_max)},
        "berger_passed": berger.passed,
        "report": sz.twistor_report_to_json(rep),
    }
    return berger.passed and rep.verdict == (spec.expect or "fat")


def _run_shift(spec, payload) -> bool:
    params = spec.shift
    rs = build_root_system(params.get("type", "B"), params.get("rank", 2))
    members = [tuple(r) for r in params.get("member_roots", [])]
    sub = subsystem_from_members(rs, members)
    vertices = [sz.parse_vec(v) for v in params["vertices"]]
    # A shift always exists; the values it leaves on the vertices are
    # written, and the entry passes when each root keeps one strict sign.
    shift = find_fat_shift(vertices, sub, verify=False)
    values, den = shift_values(vertices, sub, shift)
    verified = strict_signs(values)
    payload["shift_search"] = {
        "forbidden": [list(r) for r in sub.forbidden],
        "vertices": [sz.vec_to_json(v) for v in vertices],
        "shift": sz.vec_to_json(shift),
        "verified": verified,
        "evaluations": {",".join(map(str, root)): [sz.frac_str(Fraction(x, den)) for x in vals]
                        for root, vals in values.items()},
    }
    return verified


# -- builtin catalogs --------------------------------------------------------

def builtin_names() -> list[str]:
    return ["paper_examples", "triple_equivalence", "duality"]


def builtin_catalog(name: str) -> list[InstanceSpec]:
    if name == "paper_examples":
        return [
            InstanceSpec(
                id="so5_so4_J", g_family="so", g_params=(5,),
                h_type="so", h_params=(4,), xu_torus=vec((1, 1)), expect="fat"),
            InstanceSpec(
                id="so41_so4_J", g_family="so", g_params=(4, 1),
                h_type="so", h_params=(4,), xu_torus=vec((1, 1)), expect="fat"),
            InstanceSpec(
                id="so5_u2_J_coupling", g_family="so", g_params=(5,),
                h_type="u", h_params=(2,), xu_torus=vec((1, 1)),
                run=("roots", "oracle", "centralizer", "coupling"),
                expect="fat"),
            InstanceSpec(
                id="b2_shift_unit_square", run=("shift",),
                shift={"type": "B", "rank": 2, "member_roots": [],
                       "vertices": [["0", "0"], ["1", "0"], ["0", "1"],
                                    ["1", "1"]],
                       "expect_shift": True}),
            InstanceSpec(
                id="pinched_n2", run=("pinch",), seed=1,
                pinch={"n": 2, "epsilon": 0.54, "sign": "+", "frames": 100},
                expect="fat"),
        ]
    if name == "triple_equivalence":
        pairs = [
            ("so5_so4", (5,), "so", (4,)),
            ("so7_so6", (7,), "so", (6,)),
            ("so5_u2", (5,), "u", (2,)),
            ("so41_so4", (4, 1), "so", (4,)),
            ("so61_so6", (6, 1), "so", (6,)),
        ]
        return [
            InstanceSpec(id=pid, g_family="so", g_params=gp, h_type=ht,
                         h_params=hp, xu_torus=vec([1] * (sum(gp) // 2)),
                         expect="fat", samples=200)
            for pid, gp, ht, hp in pairs
        ]
    if name == "duality":
        return [
            InstanceSpec(id=f"dual_so{2 * n}1", g_family="so",
                         g_params=(2 * n, 1), h_type="so", h_params=(2 * n,),
                         run=("dual",), dual={"samples": 200}, seed=n)
            for n in (2, 3)
        ]
    raise FatBundleError(f"unknown builtin catalog {name!r}")
