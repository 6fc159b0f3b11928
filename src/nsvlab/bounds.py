"""Closed-form attractor-dimension bounds with explicit constants.

Every bound is evaluated from its exact symbolic constants; the decimal
summaries used in reports are upward roundings (the printed value of an
upper-bound constant must not be below the exact one).  Thresholds and
branch crossovers are located by bisection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParameterError, WrongRegimeError

TORUS = "torus"
DOMAIN = "domain"


# ----------------------------------------------------------------------------
# constants

@dataclass(frozen=True)
class ConstantsTable:
    """Best known constants entering the dimension bounds.

    c_lt_* are the 2D Lieb-Thirring constants for divergence-free
    suborthonormal families (plane and torus); c_2 bounds the pointwise
    advection trace term in 2D; k1/k1_classical/k2 assemble the logarithmic
    2D bounds.  The 3D bounds are evaluated modulo a constant (see
    bound_3d_refined), so no 3D constant is held.
    """

    c_lt_plane2d: float = 1.456 / (2 * math.pi)
    c_lt_torus2d: float = 3 * math.pi / 32
    c_2: float = math.sqrt(0.5)
    k1: float = 16 * math.sqrt(math.pi)
    k1_classical: float = 2 ** (15 / 4) * math.sqrt(math.pi)
    k2: float = 3 * math.log(2) + 2

    # exact branch constants of the logarithmic bounds
    @property
    def log_branch_coeff(self) -> float:
        """(2/pi)(sqrt(2) k1)^{2/3} = 16 / pi^{2/3}."""
        return (2 / math.pi) * (math.sqrt(2) * self.k1) ** (2 / 3)

    @property
    def log_branch_offset(self) -> float:
        """k2/2 + ln(sqrt(2) k1)."""
        return self.k2 / 2 + math.log(math.sqrt(2) * self.k1)

    @property
    def log_branch_coeff_classical(self) -> float:
        """(sqrt(2)/pi)(sqrt(2) k1')^{2/3} = 2^{10/3} / pi^{2/3}."""
        return (math.sqrt(2) / math.pi) * (math.sqrt(2) * self.k1_classical) ** (2 / 3)

    @property
    def log_branch_offset_classical(self) -> float:
        """k2/2 + ln(sqrt(2) k1')."""
        return self.k2 / 2 + math.log(math.sqrt(2) * self.k1_classical)

    @property
    def linear_torus_coeff(self) -> float:
        """pi^{-2} (c_lt/2)^{1/2} = sqrt(3)/(8 pi^{3/2}) on the 2D torus."""
        return math.sqrt(self.c_lt_torus2d / 2) / math.pi**2

    @property
    def linear_domain_coeff(self) -> float:
        """c_lt^{1/2}/(sqrt(2) pi) for bounded 2D domains."""
        return math.sqrt(self.c_lt_plane2d) / (math.sqrt(2) * math.pi)

    @property
    def classical_calg_coeff(self) -> float:
        """c_lt^{1/2}/(2 sqrt(2) pi): classical 2D bound per unit cal-G."""
        return math.sqrt(self.c_lt_plane2d) / (2 * math.sqrt(2) * math.pi)

    @property
    def classical_torus_coeff(self) -> float:
        """sqrt(c_lt)/(2 pi^2) = sqrt(3)/(2^{7/2} pi^{3/2}) on the 2D torus."""
        return math.sqrt(self.c_lt_torus2d) / (2 * math.pi**2)


CONSTANTS = ConstantsTable()


#: (summary name, exact value, printed decimals) for the regression table.
DECIMAL_SUMMARIES = (
    ("classical_calg", CONSTANTS.classical_calg_coeff, 3, 0.055),
    ("linear_domain", CONSTANTS.linear_domain_coeff, 3, 0.109),
    ("linear_torus", CONSTANTS.linear_torus_coeff, 3, 0.039),
    ("classical_torus", CONSTANTS.classical_torus_coeff, 3, 0.028),
    ("log_coeff", CONSTANTS.log_branch_coeff, 2, 7.46),
    ("log_offset", CONSTANTS.log_branch_offset, 2, 5.74),
    ("log_coeff_classical", CONSTANTS.log_branch_coeff_classical, 1, 4.7),
    ("log_offset_classical", CONSTANTS.log_branch_offset_classical, 2, 5.56),
)


# ----------------------------------------------------------------------------
# inputs and report entries

@dataclass(frozen=True)
class BoundsInput:
    """Physical parameters every bound is a function of."""

    d: int
    nu: float
    alpha: float
    g_norm: float
    lambda1: float = 1.0
    domain_measure: float = 4 * math.pi**2
    geometry: str = TORUS

    def __post_init__(self):
        problems = []
        if self.d not in (2, 3):
            problems.append(f"d must be 2 or 3, got {self.d}")
        if self.nu <= 0:
            problems.append(f"nu must be > 0, got {self.nu}")
        if self.alpha < 0:
            problems.append(f"alpha must be >= 0, got {self.alpha}")
        if self.g_norm < 0:
            problems.append(f"g_norm must be >= 0, got {self.g_norm}")
        if self.lambda1 <= 0:
            problems.append(f"lambda1 must be > 0, got {self.lambda1}")
        if self.domain_measure <= 0:
            problems.append(f"domain_measure must be > 0, got {self.domain_measure}")
        if self.geometry not in (TORUS, DOMAIN):
            problems.append(f"geometry must be torus|domain, got {self.geometry!r}")
        if self.d == 2 and self.geometry == TORUS and not problems:
            if abs(self.lambda1 * self.domain_measure - 4 * math.pi**2) > 1e-6:
                problems.append(
                    "2D torus inputs must satisfy lambda1*|domain| = 4 pi^2 "
                    f"(the [0,2pi]^2 normalization); got {self.lambda1 * self.domain_measure:.6g}"
                )
        if problems:
            raise InvalidParameterError("; ".join(problems))

    @property
    def alpha_lambda1(self) -> float:
        return self.alpha * self.lambda1

    @property
    def grashof(self) -> float:
        """G: forcing strength nondimensionalized by lambda1 and nu."""
        p = 1.0 if self.d == 2 else 0.75
        return self.g_norm / (self.lambda1**p * self.nu**2)

    @property
    def grashof_cal(self) -> float:
        """cal-G = ||g|| |domain| / nu^2."""
        return self.g_norm * self.domain_measure / self.nu**2

    @property
    def alpha0_linear(self) -> float:
        """Largest alpha for which the linear-in-cal-G bound is stated."""
        if self.geometry == TORUS:
            return self.domain_measure / (math.pi**2 * self.grashof_cal)
        return self.domain_measure / (2 * math.pi * self.grashof_cal)


OK = "ok"
OUT_OF_RANGE = "out-of-range"
MODULO_CONSTANT = "modulo-constant"


@dataclass
class BoundEntry:
    name: str
    formula_id: str
    formula: str
    value: float
    validity: str = OK
    detail: str = ""


# ----------------------------------------------------------------------------
# individual bounds

def _diverging_at_alpha0(inp: BoundsInput, name: str, formula_id: str, formula: str,
                         evaluate) -> BoundEntry:
    """The entry whose value, validity and detail are evaluate(a, G) for
    a = alpha lambda1 > 0; its formula holds a negative power of a, so at
    a = 0 it diverges (value inf, out-of-range)."""
    a = inp.alpha_lambda1
    if a == 0:
        return BoundEntry(name, formula_id, formula, math.inf, OUT_OF_RANGE, "diverges at alpha=0")
    return BoundEntry(name, formula_id, formula, *evaluate(a, inp.grashof))


def bound_basic(inp: BoundsInput) -> BoundEntry:
    """Trace bound valid in 2D and 3D; diverges as alpha -> 0."""
    if inp.d == 2:
        formula, denominator = "(a+1)^2/(8*pi*a) * G^2", lambda a: 8 * math.pi * a
    else:
        formula, denominator = "(a+1)^2/(6*pi*a^(3/2)) * G^2", lambda a: 6 * math.pi * a**1.5
    return _diverging_at_alpha0(inp, "basic trace bound", f"basic-{inp.d}d", formula,
                                lambda a, g: ((a + 1) ** 2 / denominator(a) * g**2, OK, ""))


def bound_3d_refined(inp: BoundsInput) -> BoundEntry:
    """Refined 3D bound with the softer alpha^{-3/4} blow-up.  Its prefactor
    C would be assembled from the 3D Lieb-Thirring and trace constants by a
    derivation not reproduced here, so no 3D constant is held: C is set to 1
    and the entry is tagged modulo-constant."""
    if inp.d != 3:
        raise WrongRegimeError(f"refined bound is stated for d=3, got d={inp.d}")
    return _diverging_at_alpha0(
        inp, "refined 3d bound", "refined-3d", "C*(1+a)*G^(5/2)*((1+a)*a^(-3/4)*G^(3/2)+1)",
        lambda a, g: ((1 + a) * g**2.5 * ((1 + a) * a**-0.75 * g**1.5 + 1),
                      MODULO_CONSTANT, "prefactor C set to 1"))


def bound_3d_symmetric(inp: BoundsInput) -> BoundEntry:
    """Symmetric small-alpha/large-G form a^{-3/4} G^2 min[a^{-3/4}, G^2],
    modulo-constant for the reason given in bound_3d_refined."""
    if inp.d != 3:
        raise WrongRegimeError(f"symmetric form is stated for d=3, got d={inp.d}")

    def evaluate(a, g):
        first, second = a**-0.75, g**2
        branch = "alpha" if first <= second else "grashof"
        return (first * second * min(first, second), MODULO_CONSTANT,
                f"min attained by {branch} branch")
    return _diverging_at_alpha0(inp, "symmetric 3d form", "symmetric-3d",
                                "a^(-3/4)*G^2*min[a^(-3/4), G^2]", evaluate)


def bound_2d_quadratic(inp: BoundsInput) -> BoundEntry:
    """(a+1) c_lt / 2 * G^2; finite at alpha = 0."""
    if inp.d != 2:
        raise WrongRegimeError(f"quadratic 2d bound is stated for d=2, got d={inp.d}")
    c_lt = CONSTANTS.c_lt_torus2d if inp.geometry == TORUS else CONSTANTS.c_lt_plane2d
    value = (inp.alpha_lambda1 + 1) * c_lt / 2 * inp.grashof**2
    return BoundEntry(
        "quadratic 2d bound", "quadratic-2d", "(a+1)*c_lt/2 * G^2", value, OK,
        f"c_lt({inp.geometry})={c_lt:.6g}",
    )


def bound_2d_linear(inp: BoundsInput) -> BoundEntry:
    """Linear-in-cal-G bound, valid for alpha <= alpha0."""
    if inp.d != 2:
        raise WrongRegimeError(f"linear 2d bound is stated for d=2, got d={inp.d}")
    if inp.grashof_cal <= 0:
        raise InvalidParameterError("linear 2d bound needs cal-G > 0")
    if inp.geometry == TORUS:
        coeff, fid = CONSTANTS.linear_torus_coeff, "linear-2d-torus"
    else:
        coeff, fid = CONSTANTS.linear_domain_coeff, "linear-2d-domain"
    value = coeff * inp.grashof_cal
    alpha0 = inp.alpha0_linear
    if inp.alpha > alpha0:
        return BoundEntry(
            "linear 2d bound", fid, "coeff * calG", value, OUT_OF_RANGE,
            f"alpha={inp.alpha:g} exceeds alpha0={alpha0:.6g}",
        )
    return BoundEntry("linear 2d bound", fid, "coeff * calG", value, OK,
                      f"alpha0={alpha0:.6g}")


def log_branch(x: float, coeff: float, offset: float) -> float:
    """coeff x^{2/3} (ln x + offset)^{1/3}, the log branch of the 2D torus bounds."""
    return coeff * x ** (2 / 3) * (math.log(x) + offset) ** (1 / 3)


def bound_2d_log(inp: BoundsInput) -> BoundEntry:
    """Torus bound min[linear, log-corrected 2/3 power], alpha <= alpha0."""
    if inp.d != 2 or inp.geometry != TORUS:
        raise WrongRegimeError("log-form bound is stated for the 2D torus")
    cg = inp.grashof_cal
    if cg <= 0:
        raise InvalidParameterError("log-form bound needs cal-G > 0")
    linear = CONSTANTS.linear_torus_coeff * cg
    logged = log_branch(cg, CONSTANTS.log_branch_coeff, CONSTANTS.log_branch_offset)
    value = min(linear, logged)
    branch = "linear" if linear <= logged else "log"
    alpha0 = inp.alpha0_linear
    validity = OK if inp.alpha <= alpha0 else OUT_OF_RANGE
    detail = f"min attained by {branch} branch; alpha0={alpha0:.6g}"
    if validity == OUT_OF_RANGE:
        detail += f"; alpha={inp.alpha:g} exceeds alpha0"
    return BoundEntry("log-form 2d torus bound", "log-2d-torus",
                      "min[c1*calG, c2*calG^(2/3)*(ln calG + b)^(1/3)]",
                      value, validity, detail)


def classical_ns_bounds(inp: BoundsInput) -> dict:
    """The three alpha=0 (classical) 2D bounds and their minimum."""
    if inp.d != 2:
        raise WrongRegimeError(f"classical bounds are stated for d=2, got d={inp.d}")
    if inp.alpha != 0:
        raise WrongRegimeError(f"classical bounds require alpha=0, got alpha={inp.alpha}")
    cg = inp.grashof_cal
    if cg <= 0:
        raise InvalidParameterError("classical bounds need cal-G > 0")
    general = CONSTANTS.classical_calg_coeff * cg
    torus_linear = CONSTANTS.classical_torus_coeff * cg
    torus_log = log_branch(cg, CONSTANTS.log_branch_coeff_classical,
                           CONSTANTS.log_branch_offset_classical)
    values = {
        "classical_calg": general,
        "classical_torus_linear": torus_linear,
        "classical_torus_log": torus_log,
    }
    values["min"] = min(values.values())
    return values


# ----------------------------------------------------------------------------
# thresholds

def bisect_root(f, a: float, b: float) -> float:
    """A root of f in [a, b], to 1e-10 relative to max(1, |root|) or after 200 halvings."""
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa * fb > 0:
        raise ArithmeticError(f"bisection bracket [{a:g}, {b:g}] does not change sign "
                              f"(f={fa:.3g}, {fb:.3g})")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0 or (b - a) <= 1e-10 * max(1.0, abs(m)):
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


@dataclass(frozen=True)
class Thresholds:
    """Self-consistency thresholds of the logarithmic 2D bounds.

    g0 is the cal-G above which the log-branch derivation is self-consistent
    (root of x = 7.46 x^{2/3}(ln x + 5.74)^{1/3}); the crossovers are where
    the min switches from the linear to the log branch.  Branch constants use
    the published decimal summaries, which is how the companion summary
    values were produced (exact constants move the classical crossover by
    ~6%, outside the regression tolerance).
    """

    g0: float
    g0_variant_524: float
    crossover_log_vs_linear: float
    crossover_classical: float


#: the printed decimals of DECIMAL_SUMMARIES by name; the thresholds use these
_PRINTED = {name: printed for name, _, _, printed in DECIMAL_SUMMARIES}


def compute_thresholds() -> Thresholds:
    """Locate g0 at the printed offset 5.74 (g0_variant_524 at the variant
    offset 5.24) and both min-branch crossovers by bisection, on the printed
    branch decimals.  Every bracket is fixed and changes sign."""
    p = _PRINTED

    def gap(linear, coeff, off):
        return lambda x: linear * x - log_branch(x, coeff, off)

    def g0_fn(off):
        return bisect_root(gap(1.0, p["log_coeff"], off), 1e2, 1e6)

    cross_log = bisect_root(gap(p["linear_torus"], p["log_coeff"], p["log_offset"]), 1e6, 1e12)
    cross_classical = bisect_root(
        gap(p["classical_torus"], p["log_coeff_classical"], p["log_offset_classical"]), 1e6, 1e12)
    return Thresholds(
        g0=g0_fn(p["log_offset"]),
        g0_variant_524=g0_fn(5.24),
        crossover_log_vs_linear=cross_log,
        crossover_classical=cross_classical,
    )


# ----------------------------------------------------------------------------
# report assembly

@dataclass
class DimBoundReport:
    inp: BoundsInput
    entries: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"input": asdict(self.inp), "derived": self.derived,
                "bounds": [asdict(e) for e in self.entries]}

    def to_text(self) -> str:
        rows = [("bound", "formula id", "value", "validity", "detail")]
        for e in self.entries:
            rows.append((e.name, e.formula_id, f"{e.value:.6g}", e.validity, e.detail))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        head = [f"{k} = {v:.6g}" for k, v in self.derived.items()]
        return "\n".join(["; ".join(head)] + lines)


def build_report(inp: BoundsInput) -> DimBoundReport:
    """Evaluate every bound applicable to the input and collect thresholds."""
    entries = [bound_basic(inp)]
    derived = {
        "G": inp.grashof,
        "calG": inp.grashof_cal,
        "alpha_lambda1": inp.alpha_lambda1,
    }
    if inp.d == 3:
        entries.append(bound_3d_refined(inp))
        entries.append(bound_3d_symmetric(inp))
    else:
        entries.append(bound_2d_quadratic(inp))
        if inp.grashof_cal > 0:
            entries.append(bound_2d_linear(inp))
            derived["alpha0_linear"] = inp.alpha0_linear
            if inp.geometry == TORUS:
                entries.append(bound_2d_log(inp))
        if inp.alpha == 0 and inp.grashof_cal > 0:
            classical = classical_ns_bounds(inp)
            keys = (("classical_calg", "classical_torus_linear", "classical_torus_log")
                    if inp.geometry == TORUS else ("classical_calg",))
            for key in keys:
                entries.append(BoundEntry(
                    key.replace("_", " "), key.replace("_", "-"), key, classical[key], OK,
                ))
            if inp.geometry == TORUS:
                entries.append(BoundEntry(
                    "classical minimum", "classical-min", "min of the three",
                    classical["min"], OK,
                ))
        if inp.geometry == TORUS:
            derived.update({f"threshold_{k}": v
                            for k, v in asdict(compute_thresholds()).items()})
    return DimBoundReport(inp=inp, entries=entries, derived=derived)
