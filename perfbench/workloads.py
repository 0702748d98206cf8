"""The benchmark's workloads, their seeded inputs, and the verdict gate.

Each workload is a closed loop with one caller: a pass runs its verdicts one
after another through registry.run_identity, and the next pass starts when
the previous one returns.  The package receives only the generated inputs
(identity order and tau-points); every other parameter is the registered
default.  NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from pwomega import registry

TAU_U = (-0.4, 0.4)
TAU_V = (0.85, 1.5)
EXACT_IDS = ("cor-pwrep", "thm-pwz", "sptbar-omega", "finite-jtp")

Step = Tuple[str, Optional[Dict]]    # identity id, run_identity overrides


def draw_tau(rng: random.Random) -> Tuple[float, float]:
    """A tau-point from the generic box, rounded so that it prints exactly."""
    return round(rng.uniform(*TAU_U), 6), round(rng.uniform(*TAU_V), 6)


def exact_verify(rng: random.Random) -> Iterator[List[Step]]:
    """The four exact identities at their default orders; the seed fixes the
    order in which each pass runs them."""
    while True:
        ids = list(EXACT_IDS)
        rng.shuffle(ids)
        yield [(i, None) for i in ids]


def numeric_generic(rng: random.Random) -> Iterator[List[Step]]:
    while True:
        yield [("hhat2-phat", {"taus": [draw_tau(rng)]}), ("brz-F", None), ("mu-laws", None)]


def numeric_cusp(rng: random.Random) -> Iterator[List[Step]]:
    while True:
        yield [("phat-weight1", {"taus": [draw_tau(rng)]})]


WORKLOADS = {
    "exact-verify": exact_verify,
    "numeric-generic": numeric_generic,
    "numeric-cusp": numeric_cusp,
}

WARM_UP_TAU = (0.11, 0.93)


def warm_up(workload: str) -> None:
    """The first call a fresh process makes before its first verdict."""
    if workload == "exact-verify":
        rep = registry.run_identity("finite-jtp", {"order": 6})
        if rep.status != "pass":
            raise RuntimeError(f"warm-up verdict {rep.status}: {rep.witness}")
    else:
        from pwomega.appell import mu_hat_numeric
        mu_hat_numeric(complex(0.13, 0.21), complex(-0.17, 0.3), complex(*WARM_UP_TAU),
                       registry.DEFAULT_PREC)


def passes(workload: str, seed: int) -> Iterator[List[Step]]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# the verdict gate
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    id: str
    status: str
    expected: str
    residual: Optional[float]
    tolerance: Optional[float]       # None for exact verdicts
    seconds: float
    witness: Optional[Dict]

    @property
    def ok(self) -> bool:
        if self.status != self.expected:
            return False
        if self.tolerance is None:
            return True
        return self.residual is not None and self.residual < self.tolerance

    @property
    def margin_digits(self) -> Optional[float]:
        """log10(tolerance / residual) of a numeric verdict."""
        if self.tolerance is None or self.residual is None:
            return None
        if self.residual == 0:
            return math.inf
        return math.log10(self.tolerance / self.residual)


def tolerance_of(ident: registry.Identity, prec: Optional[int]) -> Optional[float]:
    """The registered tolerance of a numeric identity.  mu-laws registers
    None; its runner then applies 2^(10 - prec), so the gate does too."""
    if "prec" not in ident.defaults:
        return None
    if ident.tolerance is not None:
        return ident.tolerance
    return 2.0 ** (10 - prec)


def run_step(step: Step) -> Verdict:
    ident_id, overrides = step
    ident = next(i for i in registry.REGISTRY if i.id == ident_id)
    t0 = time.perf_counter()
    rep = registry.run_identity(ident_id, overrides)
    seconds = time.perf_counter() - t0
    return Verdict(ident_id, rep.status, ident.expected, rep.worst_residual,
                   tolerance_of(ident, rep.params.get("prec")), seconds, rep.witness)


def run_pass(steps: List[Step]) -> List[Verdict]:
    return [run_step(s) for s in steps]


def describe_inputs(steps: List[Step]) -> str:
    parts = []
    for ident_id, overrides in steps:
        taus = (overrides or {}).get("taus")
        parts.append(ident_id if not taus else
                     f"{ident_id}(tau={' ; '.join(f'{u}+{v}i' for u, v in taus)})")
    return ", ".join(parts)
