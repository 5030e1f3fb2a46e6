"""The numpy-free part of the engine: Wigner angles, payoff tables and the closed-form margins.

Every {D, Q} dominance margin is affine in sin^2(gamma):

    m(gamma) = d0 - S sin^2(gamma)

where d0 is the margin at gamma = 0 and S its drop by gamma = pi/2.
Both are sums of products of the half-angle squares of omega_a and
omega_b (:func:`_margin_coefficients`), for either backend and any
payoff table.  The crossings arcsin(sqrt(d0 / S)) are the closed-form
thresholds, and a region map needs only the margins at the two ends of
the gamma range.  Only :mod:`math` is needed here, so ``wigner``,
closed-form ``thresholds``, at one point or on a grid, and
``region-map`` start without numpy.  ``game_core``, ``relativity`` and
``analysis`` re-import these names.  Every value class of the package
derives from :class:`_Record`, a frozen dataclass without the cost of
importing and running ``dataclasses``.
"""

from __future__ import annotations

import enum
import math
import operator

_HALF_PI = 0.5 * math.pi

# cos^2 - sin^2 cancellation leaves O(1e-16) dust in the threshold
# ratios at the omega = pi/2 endpoint; ratios this close to 0 or 1 are
# snapped so the endpoint thresholds come out exactly 0 or pi/2.
RATIO_DUST = 1e-13

#: Most points one grid may hold: grid_n <= 1024 for the grid_n x grid_n
#: omega grids, n <= 2**20 for a gamma sweep, n_theta * n_phi <= 2**20
#: candidates for a best-response scan.  Larger sizes are refused before
#: anything is allocated.
MAX_GRID_POINTS = 2**20


class Backend(enum.Enum):
    """Selectable realization of the final coefficient map."""

    PAPER = "paper"
    UNITARY = "unitary"


class NumericIntegrityError(ArithmeticError):
    """A probability vector is too far from normalized to trust.

    Carries the offending ``defect`` so callers can report it.
    """

    def __init__(self, defect: float, limit: float):
        super().__init__(
            f"probability norm defect {defect:.3e} exceeds limit {limit:.3e}"
        )
        self.defect = defect
        self.limit = limit


class ConvergenceError(ArithmeticError):
    """Bisection failed to bracket a crossing to tolerance."""


def _finite(value, name: str) -> bool:
    """``math.isfinite(value)``; the one type rule of every real argument.

    A value that ``math.isfinite`` does not read as a real number (None, a string,
    a complex number, a sequence) raises a ``TypeError`` naming ``name``, and so
    does an unhashable one, such as a 0-d array, which a record could not hash.
    """
    if value.__class__.__hash__ is not None:
        try:
            return math.isfinite(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be a real number, got {value!r}")


def _require_finite_scalar(value: float, name: str) -> None:
    if not _finite(value, name):
        raise ValueError(f"{name} must be finite, got {value!r}")


#: Payoff comparisons within this distance count as ties.
DEFAULT_TIE_TOL = 1e-9


def _check_tolerance(value: float, name: str) -> None:
    """A tolerance must be a real number >= 0; +inf turns its check off, NaN is refused."""
    _finite(value, name)  # the type rule only: +inf passes
    if not value >= 0.0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def rapidity_from_speed(v: float) -> float:
    """Rapidity artanh(v) for a speed v in [0, 1) (fraction of c)."""
    _require_finite_scalar(v, "speed")
    if not 0.0 <= v < 1.0:
        raise ValueError(f"speed must be in [0, 1), got {v}")
    return math.atanh(v)


def speed_from_rapidity(rapidity: float) -> float:
    """Inverse of :func:`rapidity_from_speed`."""
    if not _finite(rapidity, "rapidity") or rapidity < 0.0:
        raise ValueError(f"rapidity must be finite and >= 0, got {rapidity!r}")
    return math.tanh(rapidity)


def wigner_angle(alpha: float, delta: float) -> float:
    """Wigner rotation angle from the arbiter and player rapidities.

    Symmetric in its arguments, zero iff either rapidity is zero, and
    strictly increasing in each argument while the other is positive.
    Finite for every finite rapidity; it tends to pi/2 as both grow.
    """
    for name, value in (("alpha", alpha), ("delta", delta)):
        if not _finite(value, name) or value < 0.0:
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if alpha == 0.0 or delta == 0.0:
        return 0.0  # +0.0 for a rapidity of -0.0 too
    try:
        ratio = math.sinh(alpha) * math.sinh(delta) / (math.cosh(alpha) + math.cosh(delta))
        if math.isfinite(ratio):
            return math.atan(ratio)
    except OverflowError:
        pass
    # A rapidity or alpha + delta past about 710 overflows a term above; divided
    # through by cosh(alpha) cosh(delta), the ratio is tanh tanh / (sech + sech).
    sech_a, sech_d = (2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x)) for x in (alpha, delta))
    return math.atan2(math.tanh(alpha) * math.tanh(delta), sech_a + sech_d)


def check_omega(omega: float, name: str = "omega") -> float:
    """Validate a game angle in [0, pi/2]: a Wigner angle or the entanglement angle gamma."""
    _require_finite_scalar(omega, name)
    if not 0.0 <= omega <= _HALF_PI:
        raise ValueError(f"{name} must be in [0, pi/2], got {omega}")
    return omega


def _linspace(upper: float, n: int) -> list[float]:
    """n uniformly spaced values from 0 to upper, both ends included (n >= 2).

    numpy's linspace rule, so the values are bit-for-bit those of
    ``np.linspace(0.0, upper, n)``.
    """
    step = upper / (n - 1)
    return [i * step for i in range(n - 1)] + [upper]


def _grid_axis(n: int, name: str, dims: int = 1) -> list[float]:
    """n uniformly spaced angles in [0, pi/2], the axis of an n**dims grid."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n}")
    if n**dims > MAX_GRID_POINTS:
        raise ValueError(f"{name} = {n} makes {n**dims} grid points, more than {MAX_GRID_POINTS}")
    return _linspace(_HALF_PI, n)


class _Record:
    """An immutable value class, as ``@dataclass(frozen=True)`` would make it.

    A subclass's annotated names are its fields, in order (kept as
    ``__match_args__``), and a value given to one in the class body is
    its default (defaults come last).  Its ``__init__`` sets the fields,
    then calls ``__post_init__`` if the class has one; it is compiled
    once per class, so an instance costs what a dataclass instance does.
    ``repr``, ``==``, ``hash`` and pickling follow the field tuple, and
    no attribute can be set or deleted.
    """

    def __init_subclass__(cls):
        fields = cls.__match_args__ = tuple(cls.__annotations__)
        body = "".join(f"\n _set(self, {name!r}, {name})" for name in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = tuple(cls.__dict__[name] for name in fields if name in cls.__dict__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class ThresholdSet(_Record):
    """The four crossing gammas; None marks an absent crossing."""

    g_a12: float | None
    g_a34: float | None
    g_b13: float | None
    g_b24: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {
            "gA12": self.g_a12,
            "gA34": self.g_a34,
            "gB13": self.g_b13,
            "gB24": self.g_b24,
        }


class PayoffParams(_Record):
    """Payoff table (t, r, p, s); default (5, 3, 1, 0).

    The dilemma ordering t > r > p > s is enforced unless
    ``allow_non_dilemma`` is True, which permits exploring arbitrary
    tables without touching core code.  It must be a ``bool``: a
    truthy string such as "no" would switch the ordering check off.
    """

    t: float = 5.0
    r: float = 3.0
    p: float = 1.0
    s: float = 0.0
    allow_non_dilemma: bool = False

    def __post_init__(self):
        for name, value in (("t", self.t), ("r", self.r), ("p", self.p), ("s", self.s)):
            _require_finite_scalar(value, name)
        if not isinstance(self.allow_non_dilemma, bool):
            raise TypeError(f"allow_non_dilemma must be a bool, got {self.allow_non_dilemma!r}")
        if not self.allow_non_dilemma and not (self.t > self.r > self.p > self.s):
            raise ValueError(
                f"payoffs must satisfy t > r > p > s, got "
                f"({self.t}, {self.r}, {self.p}, {self.s}); "
                "pass allow_non_dilemma=True to override"
            )


def _check_type(value, cls: type, name: str) -> None:
    """Refuse an argument that is not a ``cls``, by name: "pay must be a PayoffParams"."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_pay_and_backend(pay, backend) -> None:
    """Refuse a payoff table or a backend of the wrong type, the table first."""
    _check_type(pay, PayoffParams, "pay")
    _check_type(backend, Backend, "backend")


def _half_angle_squares(omega: float) -> tuple[float, float]:
    c = math.cos(0.5 * omega)
    s = math.sin(0.5 * omega)
    return c * c, s * s


def _arcsin_sqrt_ratio(num: float, den: float) -> float | None:
    if den <= 0.0:
        return None
    ratio = num / den
    if abs(ratio) <= RATIO_DUST:
        ratio = 0.0
    elif abs(ratio - 1.0) <= RATIO_DUST:
        ratio = 1.0
    if not 0.0 <= ratio <= 1.0:
        return None
    return math.asin(math.sqrt(ratio))


def _margin_coefficients(backend: Backend, pay: PayoffParams) -> tuple:
    """Weights (w1, w2, w3, w4) of d0 for a12, a34, b13 and b24, then of S_alice and S_bob.

    Each is w1 c2a c2b + w2 s2a s2b + w3 c2a s2b + w4 s2a c2b, with c2
    and s2 the cos^2 and sin^2 of half of omega_a or omega_b, for the
    payoff table ``pay``.  Alice's margins drop by S_alice by
    gamma = pi/2, Bob's by S_bob; only the PAPER map's (2,4) and (3,4)
    entries make S differ between the backends.
    """
    ps, tr, ts, pr = pay.p - pay.s, pay.t - pay.r, pay.t - pay.s, pay.p - pay.r
    if backend is Backend.UNITARY:
        drops = ((ts, -ts, pr, -pr), (ts, -ts, -pr, pr))
    else:
        drops = ((ts, -ts, ts + pr, -pr), (ts, -ts, -ts - pr, pr))
    return ((ps, -tr, tr, -ps), (tr, -ps, ps, -tr), (ps, -tr, -ps, tr), (tr, -ps, -tr, ps), *drops)


_PAPER_DEFAULT = _margin_coefficients(Backend.PAPER, PayoffParams())


def _margin_rows(axis_a: list[float], axis_b: list[float], coefficients: tuple):
    """Per omega_a, the sums of each weight 4-tuple of ``coefficients`` along axis_b.

    Each weight times c2a or s2a is formed once per row, and each cell
    adds its four products left to right.
    """
    squares_b = [_half_angle_squares(omega) for omega in axis_b]
    for omega in axis_a:
        c2a, s2a = _half_angle_squares(omega)
        row = []
        for w1, w2, w3, w4 in coefficients:
            f1, f2, f3, f4 = w1 * c2a, w2 * s2a, w3 * c2a, w4 * s2a
            row.append([f1 * c2b + f2 * s2b + f3 * s2b + f4 * c2b for c2b, s2b in squares_b])
        yield row


def thresholds_closed_form(omega_a: float, omega_b: float) -> ThresholdSet:
    """Closed-form crossing gammas for the default (5, 3, 1, 0) payoffs on PAPER.

    Each is arcsin(sqrt(d0 / S)) of its margin (:func:`_margin_coefficients`),
    absent when that ratio falls outside [0, 1] or S is not positive.
    """
    check_omega(omega_a, "omega_a")
    check_omega(omega_b, "omega_b")
    [[cell]] = _threshold_rows([omega_a], [omega_b])
    return ThresholdSet(*cell)


def _threshold_rows(axis_a: list[float], axis_b: list[float] | None = None):
    """Closed-form (gA12, gA34, gB13, gB24) over the axis_a x axis_b omega grid.

    One list per omega_a, holding one tuple per omega_b; ``axis_b``
    defaults to ``axis_a``.  The axis values must lie in [0, pi/2];
    they are not checked here.
    """
    rows = _margin_rows(axis_a, axis_a if axis_b is None else axis_b, _PAPER_DEFAULT)
    for a12, a34, b13, b24, s_a, s_b in rows:
        yield list(zip(map(_arcsin_sqrt_ratio, a12, s_a), map(_arcsin_sqrt_ratio, a34, s_a),
                       map(_arcsin_sqrt_ratio, b13, s_b), map(_arcsin_sqrt_ratio, b24, s_b)))


class RegionMapRow(_Record):
    """Dominance-everywhere flags at one (omega_a, omega_b) grid point."""

    omega_a: float
    omega_b: float
    bob_always_d: bool
    alice_always_q: bool


def always_classical_scan(
    grid_n: int,
    backend: Backend,
    pay: PayoffParams | None = None,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> tuple[RegionMapRow, ...]:
    """Flags, per (omega_a, omega_b) grid point, dominance over all gamma.

    ``bob_always_d``: both of Bob's margins favor D beyond the tie
    tolerance at gamma = 0 and pi/2 (affinity makes the endpoints
    decisive), so Bob's dominant move is D however entangled the game.
    ``alice_always_q``: the gA34 = 0 case; Alice's crossings sit at
    gamma = 0 so Q dominates for every positive gamma.

    For the default table (5, 3, 1, 0), with x = cos(omega_a) and
    y = cos(omega_b), Bob's always-D region is {9x + 5y + 7xy < 5,
    y > 0} under PAPER and empty under UNITARY, where his DD-DQ margin
    at gamma = pi/2 is -x(y + 7)/2 <= 0.  The classical-latter region
    thus rests on the PAPER map's two non-unitary entries.
    """
    axis = _grid_axis(grid_n, "grid_n", dims=2)
    _check_tolerance(tie_tol, "tie_tol")
    pay = pay if pay is not None else PayoffParams()
    _check_pay_and_backend(pay, backend)
    coefficients = _margin_coefficients(backend, pay)
    # The total bounds every sum below; were it inf, a sum could be inf - inf = nan,
    # which fails every comparison and so would silently clear the flags.
    if not math.isfinite(sum(abs(w) for weights in coefficients for w in weights)):
        raise ValueError(
            f"payoff table ({pay.t}, {pay.r}, {pay.p}, {pay.s}) is too large: "
            "its margin weights overflow"
        )
    rows = []
    for omega_a, row in zip(axis, _margin_rows(axis, axis, coefficients)):
        for omega_b, a12, a34, b13, b24, s_a, s_b in zip(axis, *row):
            bob_always_d = (
                b13 > tie_tol and b24 > tie_tol
                and b13 - s_b > tie_tol and b24 - s_b > tie_tol
            )
            alice_always_q = (
                a12 <= tie_tol and a34 <= tie_tol
                and a12 - s_a < -tie_tol and a34 - s_a < -tie_tol
            )
            rows.append(RegionMapRow(omega_a, omega_b, bob_always_d, alice_always_q))
    return tuple(rows)
