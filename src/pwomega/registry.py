"""Identity registry: every verifiable statement gets a stable id, a parts
generator, default parameters, and a tolerance; run_identity turns its parts
into a VerificationReport for the CLI and the acceptance suite.  Only the exact
layers load with this module; a numeric identity's parts import what they use
from mpmath and the numeric modules when first taken, inside
kernels.workprec(prec), the numeric layer's one precision boundary.

A part is one comparison; _check alone decides every verdict, taking the parts
one at a time, so nothing after a failing part is built:
  (label, lhs, rhs)    exact series; fail at different orders, when both are
                       zero (nothing compared), or at their first mismatch
  (label, mismatch)    an exact comparison made by its own route, which hands
                       over its first mismatch (None when it found none)
  (residual, witness)  numeric; the worst (NaN is always the worst) must stay
                       below the identity's tolerance
  (residual, witness, tolerance)   a stage: the worst so far is decided first,
                       then this part against its own tolerance; its residual
                       is reported only when it fails
An exact identity fails with no parts, a numeric one with no residuals.

Two registered identities are expected to FAIL with their literal
tolerances ("phat-holpart" and the original-form lowering combination inside
"phat-lowering"); their reports carry the corrected-variant residuals as
diagnostics.  See the package README for the analysis.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .classical import (EtaQuotient, TorsionPoint, eta_quotient_series,
                        finite_jtp_sides, heine_sides,
                        theta_elliptic_shift_reference, theta_series_at_torsion)
from .cyc8 import Cyc8, I
from .errors import UndeclaredParameter, UnknownIdentity
from .indefinite import (g_equals_sum_of_f_mismatch, pbar_from_dzeta_brackets,
                         pbar_omega_series, pwz_coefficient_formula_sides,
                         pwz_lhs_cleared, pwz_rhs_cleared)
from .partitions import census, genfun
from .qseries import Monomial, QSeries

F = Fraction

SCHEMA_VERSION = 1

DEFAULT_PREC = 192
DEFAULT_TAUS = [(0.11, 0.93), (-0.23, 1.07), (0.31, 1.49)]
EXTPTS = DEFAULT_TAUS + [(0.07, 0.84), (-0.41, 1.21)]
GAMMA_MATS = ["7,5,4,3", "1,0,8,1", "3,-1,4,-1"]


@dataclass
class VerificationReport:
    id: str
    status: str                       # pass | fail | error
    params: Dict
    tolerance: Optional[float]
    worst_residual: Optional[float]
    witness: Optional[Dict]
    elapsed_ms: int
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> Dict:
        return asdict(self)


def _mismatch_witness(part: str, mm) -> Dict:
    """Witness of a first mismatch: (exponent, lhs, rhs) from a QSeries or
    (q_exponent, zeta_exponent, lhs, rhs) from a JSeries."""
    if len(mm) == 3:
        exp, ca, cb = mm
        return {"part": part, "exponent": str(exp), "lhs": str(ca), "rhs": str(cb)}
    qe, ze, ca, cb = mm
    return {"part": part, "q_exponent": str(qe), "zeta_exponent": str(ze),
            "lhs": str(ca), "rhs": str(cb)}


def _exact_witness(label: str, a, b=None) -> Optional[Dict]:
    """None when an exact part holds, else its witness.  Sides at different
    orders fail, since only the shorter one's coefficients would be compared;
    so do two zero sides.  With no b, a is its own route's first mismatch."""
    if b is None:
        mm = a
    elif a.order_exp() != b.order_exp():
        return {"part": label, "orders": [str(a.order_exp()), str(b.order_exp())]}
    elif a.is_zero() and b.is_zero():
        return {"part": label, "compared": "nothing"}
    else:
        mm = a.first_mismatch(b)
    return None if mm is None else _mismatch_witness(label, mm)


def _result(ok: bool, worst, witness, tol) -> Dict:
    """_check's result: ok, the witness of a failure and, when there is a
    tolerance (a numeric identity), the worst residual."""
    out = {"ok": ok, "witness": None if ok else witness}
    if tol is not None:
        out["worst"] = worst
    return out


def _check(parts, tol, prec) -> Dict:
    """The one verdict over an identity's parts (see the module docstring),
    taken under kernels.workprec(prec) when prec is given; the worst
    residual is the first of equal ones."""
    scope = nullcontext()
    if prec is not None:
        from .kernels import workprec
        scope = workprec(prec)
    worst = wit = part = None
    with scope:
        for part in parts:
            if isinstance(part[0], str):
                w = _exact_witness(*part)
                if w is not None:
                    return _result(False, None, w, tol)
            elif len(part) == 3:
                res, w, own = part
                if worst is not None and not worst < tol:
                    return _result(False, worst, wit, tol)
                if not res < own:
                    return _result(False, res, w, tol)
            elif worst is None or part[0] > worst or part[0] != part[0]:   # or a NaN
                worst, wit = part
    if tol is None:
        return _result(part is not None, None, {"part": "no parts"}, tol)
    if worst is None:
        return _result(False, None, {"part": "no residuals"}, tol)
    return _result(worst < tol, worst, wit, tol)


# ---------------------------------------------------------------------------
# parts (each generator takes an identity's params)
# ---------------------------------------------------------------------------

def _family_parts(family: str, params):
    N = params["order"]
    yield family, genfun(family, N), genfun(family, N, side="appell")
    if family == "spt":
        spt = genfun("spt", 21)
        yield "census", spt, QSeries.from_terms(spt.D, enumerate(census("spt", 20), 1), 21)


def _sptg2_parts(params):
    yield "sptG2-equiv", genfun("spt_g2", params["order"]), genfun("sptbar_omega", params["order"])


def _pwz_parts(params):
    N, W = params["order"], params["window"]
    lhs = pwz_lhs_cleared(N, W)
    yield "cleared-identity", lhs, pwz_rhs_cleared(N, W)
    cut = lhs.truncate(min(N, 20))
    for j in (1, 2, 3):
        yield (f"coefficient-formula j={j}", *pwz_coefficient_formula_sides(cut, j))


def _cor_pwrep_parts(params):
    N = params["order"]
    a = pbar_omega_series(N, "definition")
    b = pbar_omega_series(N, "triple_sum")
    yield "definition-vs-triple", a, b
    top = min(N, 26)
    yield "enumeration-oracle", a.truncate(top), pbar_omega_series(top, "oracle")
    M = min(N, 40)
    yield "zeta-bracket-route", pbar_from_dzeta_brackets(M), b.truncate(M).refine(24)
    yield "G=sum F", g_equals_sum_of_f_mismatch(15)


# (z1, z2, z3, tau) of the brz-F comparison
BRZ_POINTS = [((0.13, 0.21), (-0.07, 0.11), (0.19, -0.15), (0.11, 0.93)),
              ((0.02, 0.17), (0.23, -0.05), (-0.31, 0.08), (-0.23, 1.07)),
              ((-0.17, 0.12), (0.05, 0.21), (0.13, 0.17), (0.31, 1.49)),
              ((0.29, -0.11), (-0.13, 0.19), (0.07, -0.23), (0.07, 0.84)),
              ((0.11, 0.07), (0.17, 0.13), (-0.23, -0.11), (-0.41, 1.21))]


def _brz_parts(params):
    from mpmath import mp
    from .completion import F_cone_numeric, F_mu_numeric
    for pt in BRZ_POINTS:
        z1, z2, z3, tau = (mp.mpc(*x) for x in pt)
        a = F_cone_numeric(z1, z2, z3, tau)
        b = F_mu_numeric(z1, z2, z3, tau)
        yield float(abs(a - b)), {"part": "cone-vs-mu"}


def _theta_shifts_parts(params):
    from mpmath import mp
    from .kernels import R, qpow
    N = params["order"]
    yield ("theta(tau+1/2)", theta_series_at_torsion(TorsionPoint(1, F(1, 2)), N),
           eta_quotient_series(EtaQuotient([(2, 2), (1, -1)], Monomial(-2, F(-1, 2))), N))
    z = TorsionPoint(F(1, 2), F(1, 4))
    yield ("theta(tau/2+1/4)", theta_series_at_torsion(z, N),
           eta_quotient_series(EtaQuotient([(2, 2), (4, -1)],
                                           Monomial(Cyc8.zeta_pow(-3), F(-1, 8))), N))
    for lam in (-1, 0, 1):
        for mu_ in (-1, 0, 1):
            yield (f"elliptic({lam},{mu_})",
                   theta_series_at_torsion(z.shifted(lam, mu_), 18),
                   theta_elliptic_shift_reference(z, lam, mu_, 18))
    for tt in params["taus"]:
        tau = mp.mpc(*tt)
        yield (float(abs(R(tau + mp.mpf(1) / 2, tau) - 2j * qpow(tau, F(3, 8)))),
               {"part": "R(tau+1/2)"})


def _mu_laws_parts(params):
    """The mu/mu-hat/R laws at random points and mu-hat's S and T laws, then
    a stage: mu-hat's weight-1/2 Laplacian at torsion data against
    laplacian_tolerance (step-limited).

    Each distinct kernel value of a trial is computed once and read by
    every law that needs it, its mu sums through one TauPlan: mu(z2, z1)
    serves mu-symmetry and muhat-swap, R(z2 - z1) serves muhat-swap and
    muhat-negate, and mu(z1, z2) and R(z1) serve the laws that read them.
    No pass, MuPlan or value is shared by the two sides of one law: mh
    comes from kernels.muhat itself, so muhat-minus-mu tests it against mu
    and R summed apart; R-shift-1 sums R at z1 + 1 and at z1; mu-elliptic's
    two mu sums have their own MuPlans.  Nothing outlives the trial.  The S
    and T laws read one mu-hat(z1, z2; tau0): they are two laws, not the
    two sides of one."""
    from mpmath import mp
    from .appell import mu_hat_transform_check
    from .kernels import R, TauPlan, muhat, qpow
    from .modular import GroupElement, laplacian_fd
    rng = random.Random(20260)
    for trial in range(10):
        tau = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4))
        z1 = mp.mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        z2 = mp.mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        if abs(z1) < 0.05 or abs(z2) < 0.05 or abs(z1 - z2) < 0.05:
            continue
        plan = TauPlan(tau)
        mh = muhat(z1, z2, tau)
        m12, = plan.mu(z2)(z1)
        m21, = plan.mu(z1)(z2)
        r1, r21 = R(z1, tau), R(z2 - z1, tau)
        checks = {
            "mu-symmetry": abs(m12 - m21),
            "muhat-swap": abs(mh - (m21 + 0.5j * r21)),
            "muhat-negate": abs(mh - (plan.mu(-z2)(-z1)[0] + 0.5j * r21)),
            "muhat-minus-mu": abs(mh - m12 - 0.5j * R(z1 - z2, tau)),
            "R-shift-1": abs(R(z1 + 1, tau) + r1),
            "R-shift-tau": abs(R(z1 + tau, tau)
                               + mp.expjpi(2 * z1) * qpow(tau, F(1, 2)) * r1
                               - 2 * mp.expjpi(z1) * qpow(tau, F(3, 8))),
            "mu-elliptic": abs(plan.mu(z2)(z1 + tau)[0]
                               + mp.expjpi(2 * (z1 - z2) + tau) * m12
                               + 1j * mp.expjpi(z1 - z2 + 3 * tau / 4)),
        }
        scale = max(abs(mh), 1)
        for name, resid in checks.items():
            yield float(resid / scale), {"part": name}
    # modular law under S and T at a fixed generic point
    tau0 = mp.mpc(0.13, 1.1)
    z1, z2 = mp.mpc(0.21, 0.12), mp.mpc(-0.11, 0.31)
    Ms = (GroupElement(0, -1, 1, 0), GroupElement(1, 1, 0, 1))
    for M, res in zip(Ms, mu_hat_transform_check(Ms, z1, z2, tau0)):
        yield res, {"part": f"muhat-transform {M}"}

    def h(t):
        t = mp.mpc(t)
        return muhat(t / 2, t / 2 + mp.mpf(1) / 4, t)

    lap = laplacian_fd(h, F(1, 2), mp.mpc(0.13, 1.02))
    yield float(abs(lap)), {"part": "laplacian muhat"}, params["laplacian_tolerance"]


def _finite_jtp_parts(params):
    return ((f"n={n}", *finite_jtp_sides(n, params["order"])) for n in range(0, 6))


def _heine_parts(params):
    N = params["order"]
    for j in (0, 1, 2):
        yield (f"quarter-root family j={j}",
               *heine_sides(Monomial(I, F(2 * j + 1, 2)), Monomial(-I, F(2 * j + 1, 2)),
                            Monomial(1, 2 * j + 1), Monomial(1, 1), N))
    rng = random.Random(4047)
    done = 0
    while done < 3:
        a = Monomial(Cyc8(rng.randint(-2, 2), rng.randint(-1, 1)), F(rng.randint(1, 4), 2))
        b = Monomial(Cyc8(rng.randint(-2, 2), 0, rng.randint(-1, 1)), F(rng.randint(1, 4), 2))
        if a.coeff.is_zero() or b.coeff.is_zero():
            continue
        c = Monomial(1, F(rng.randint(1, 4), 2) + b.q_exp)
        z = Monomial(1, rng.randint(1, 2))
        yield (f"random instance {done}", *heine_sides(a, b, c, z, N))
        done += 1


def _hhat1_parts(params):
    from mpmath import mp
    from .completion import hhat1_numeric
    for tt in params["taus"]:
        yield float(abs(hhat1_numeric(mp.mpc(*tt)).value)), {"part": "hhat1"}


def _hhat2_parts(params):
    from mpmath import mp
    from .completion import hhat2_numeric, phat_omega_numeric
    from .kernels import eta
    for tt in params["taus"]:
        tau = mp.mpc(*tt)
        h2 = hhat2_numeric(tau)
        ph = phat_omega_numeric(tau)
        yield (float(abs(h2.value + 4j * eta(tau) ** 3 * ph.value)),
               {"part": "hhat2 vs -4i eta^3 phat"})


def _phat_weight1_parts(params):
    from mpmath import mp
    from .completion import phat_omega_numeric
    from .modular import GroupElement
    taus = [mp.mpc(*tt) for tt in params["taus"]]
    rights = [phat_omega_numeric(tau).value for tau in taus]
    for mat in params["matrices"]:
        M = GroupElement.parse(mat)
        for tt, tau, right in zip(params["taus"], taus, rights):
            left = phat_omega_numeric(M.act(tau)).value
            res = abs(left - mp.expjpi(mp.mpf(M.c) / 8) * M.jfactor(tau) * right)
            yield (float(res / max(abs(left), abs(right))),
                   {"matrix": str(M), "tau": list(tt)})


def _phat_holpart_parts(params):
    """Literal decay bound (expected fail: the non-holomorphic remainder has
    a non-decaying v^(-1/2) term): the v = 4 residual under the tolerance, then
    a stage, under a tenth of the v = 3 one; one witness for both, carrying the
    plateau-subtracted residuals as diagnostics."""
    from mpmath import mp
    from .completion import holomorphic_part_numeric, nonholo_plateau, phat_omega_numeric
    res, res_corr = {}, {}
    for v in (3, 4):
        tau = mp.mpc(0.3, v)
        ph = phat_omega_numeric(tau).value
        hol = holomorphic_part_numeric(tau, params["order"])
        res[v] = float(abs(ph - hol))
        res_corr[v] = float(abs(ph - nonholo_plateau(tau) - hol))
    witness = {"part": "literal holomorphic-part criterion",
               "residual_v3": res[3], "residual_v4": res[4],
               "plateau_subtracted_v3": res_corr[3], "plateau_subtracted_v4": res_corr[4],
               "plateau_decay_ratio": res_corr[3] / res_corr[4]}
    yield res[4], witness
    yield res[4], witness, res[3] / 10


def _phat_lowering_parts(params):
    """The lowering combination in its original form (expected fail), plus
    the closed tau-bar derivative of FF'(0) (passes): at each point the
    larger of the two residuals, with the corrected form's residual as a
    diagnostic and the point's tau when there are several."""
    from mpmath import mp
    from .completion import dtaubar_fcal1_closed, fcal_derivs, lowering_rhs, phat_omega_numeric
    from .modular import dtaubar_fd, lowering_fd
    for tt in params["taus"]:
        tau = mp.mpc(*tt)
        Lfd = lowering_fd(lambda t: phat_omega_numeric(t).value, tau)
        printed, corrected = (float(abs(Lfd - rhs)) for rhs in lowering_rhs(tau))
        d = dtaubar_fd(lambda t: fcal_derivs(t)[1].value, tau)
        d435 = float(abs(d - dtaubar_fcal1_closed(tau)))
        witness = {"part": "original-form lowering combination",
                   "original_form_residual": printed,
                   "corrected_residual": corrected,
                   "dtaubar_fcal1_residual": d435}
        if len(params["taus"]) > 1:
            witness["tau"] = list(tt)
        yield max(printed, d435), witness


def _f2_shadow_parts(params):
    from mpmath import mp
    from .completion import f2_shadow_closed, f_family_numeric
    from .modular import xi_fd
    for tt in params["taus"]:
        tau = mp.mpc(*tt)
        xi = xi_fd(lambda t: f_family_numeric(2, t), F(1, 2), tau)
        yield float(abs(xi - f2_shadow_closed(tau))), {"part": "xi_{1/2}(f2)"}


# ---------------------------------------------------------------------------
# registry table
# ---------------------------------------------------------------------------

@dataclass
class Identity:
    id: str
    description: str
    parts: Callable            # params -> the parts _check decides
    defaults: Dict = field(default_factory=dict)
    tolerance: Optional[float] = None
    expected: str = "pass"     # documented expectation under literal tolerances


REGISTRY: List[Identity] = [
    Identity("spt-andrews", "smallest-parts series equals its Appell-Lerch form, exact",
             lambda p: _family_parts("spt", p), {"order": 41}),
    Identity("spt-omega", "spt_omega series equals its Appell-Lerch form, exact",
             lambda p: _family_parts("spt_omega", p), {"order": 41}),
    Identity("sptbar-omega", "overpartition spt series equals its Appell-Lerch form, exact",
             lambda p: _family_parts("sptbar_omega", p), {"order": 41}),
    Identity("sptG2-equiv", "the G2-type series equals the overpartition spt series, exact",
             _sptg2_parts, {"order": 41}),
    Identity("pomega-qomega", "P_omega equals q times the omega series, exact",
             lambda p: _family_parts("p_omega", p), {"order": 41}),
    Identity("thm-pwz", "cleared two-variable double-sum identity + per-j coefficients",
             _pwz_parts, {"order": 25, "window": 25}),
    Identity("cor-pwrep", "triple-sum representation of P-bar-omega, three routes",
             _cor_pwrep_parts, {"order": 61}),
    Identity("brz-F", "cone sum equals the Appell-Lerch representation of F",
             _brz_parts, {"prec": DEFAULT_PREC}, tolerance=1e-20),
    Identity("hhat1-zero", "the first combined H-hat function vanishes",
             _hhat1_parts, {"prec": DEFAULT_PREC, "taus": EXTPTS}, tolerance=1e-20),
    Identity("hhat2-phat", "the second combined H-hat equals -4i eta^3 times the completion",
             _hhat2_parts, {"prec": DEFAULT_PREC, "taus": DEFAULT_TAUS}, tolerance=1e-20),
    Identity("phat-weight1", "weight-1 transformation with multiplier e^(pi i c/8)",
             _phat_weight1_parts,
             {"prec": DEFAULT_PREC, "taus": DEFAULT_TAUS, "matrices": GAMMA_MATS},
             tolerance=1e-15),
    Identity("phat-holpart", "literal holomorphic-part decay bound (known failure, see README)",
             _phat_holpart_parts, {"prec": 160, "order": 120}, tolerance=1e-8,
             expected="fail"),
    Identity("phat-lowering", "lowering identity, original form + closed tau-bar derivative",
             _phat_lowering_parts, {"prec": 160, "taus": DEFAULT_TAUS[:1]}, tolerance=1e-6,
             expected="fail"),
    Identity("f2-shadow", "shadow of the weight-1/2 piece is 2 sqrt2 e^(-pi i/4) pi eta(4t)^3",
             _f2_shadow_parts, {"prec": 160, "taus": DEFAULT_TAUS[:2]}, tolerance=1e-6),
    Identity("theta-shifts", "torsion theta eta-quotients, elliptic shifts, R(tau+1/2)",
             _theta_shifts_parts, {"order": 30, "prec": DEFAULT_PREC, "taus": DEFAULT_TAUS},
             tolerance=1e-20),
    Identity("mu-laws", "mu/mu-hat/R laws, transforms, and torsion harmonicity",
             _mu_laws_parts, {"prec": 128, "laplacian_tolerance": 1e-5}, tolerance=2.0 ** -118),
    Identity("finite-jtp", "finite triple-product identity for n <= 5",
             _finite_jtp_parts, {"order": 30}),
    Identity("heine", "Heine transformation: quarter-root family and random monomials",
             _heine_parts, {"order": 25}),
]

_BY_ID = {ident.id: ident for ident in REGISTRY}


def _declared(ident: Identity) -> Dict:
    """The parameters ident's parts read, and the only ones an override
    may set: its defaults and, for a numeric identity (one with a prec),
    its tolerance."""
    params = dict(ident.defaults)
    if "prec" in params:
        params["tolerance"] = ident.tolerance
    return params


def run_identity(id: str, overrides: Optional[Dict] = None) -> VerificationReport:
    """Run one identity with its declared parameters and the overrides that
    are not None; an override of an undeclared key is refused up front."""
    if id not in _BY_ID:
        raise UnknownIdentity(f"unknown identity {id!r}")
    ident = _BY_ID[id]
    params = _declared(ident)
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in params:
            raise UndeclaredParameter(f"identity {id!r} reads no parameter {key!r} "
                                      f"(it reads {', '.join(params)})")
        params[key] = val
    t0 = time.time()
    try:
        result = _check(ident.parts(params), params.get("tolerance"), params.get("prec"))
        status = "pass" if result["ok"] else "fail"
        worst = result.get("worst")
        witness = result.get("witness")
    except Exception as exc:  # computational failure becomes an error report
        status, worst = "error", None
        witness = {"error": type(exc).__name__, "message": str(exc)}
    elapsed = int((time.time() - t0) * 1000)
    return VerificationReport(id=id, status=status,
                              params=json.loads(json.dumps(params, default=str)),
                              tolerance=params.get("tolerance"),
                              worst_residual=worst, witness=witness,
                              elapsed_ms=elapsed)


def run_suite(filter_glob: Optional[str] = None,
              overrides: Optional[Dict] = None) -> List[VerificationReport]:
    """Run the identities matching filter_glob, each with the overrides it declares."""
    import fnmatch

    return [run_identity(ident.id, {k: v for k, v in (overrides or {}).items()
                                    if k in _declared(ident)})
            for ident in REGISTRY
            if filter_glob is None or fnmatch.fnmatch(ident.id, filter_glob)]
