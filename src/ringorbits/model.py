"""Reduced model of a rotating ring of equal masses coupled to an axial body.

n bodies of mass m sit at the vertices of a regular n-gon whose plane stays
perpendicular to the z-axis, and one body of mass M moves on the axis.  With
G = 1 and the center of mass pinned at the origin, the motion reduces to the
axial separation f, the ring radius r and the ring phase theta.  The phase
decouples through the angular momentum integral r^2 * thetadot = r0 * a, so
the dynamical core is the (f, r) system plus a quadrature for theta.
"""

from __future__ import annotations

import functools
import json
import linecache
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "lambda_n",
    "SystemParams",
    "write_json",
    "CartesianState",
    "reduced_initial",
    "augmented_initial",
    "make_reduced_rhs",
    "make_variational_rhs",
    "reduced_energy",
    "cartesian_lift",
    "cartesian_energy",
    "center_of_mass",
    "total_momentum",
    "total_angular_momentum",
]

# Collision guard: the reduced equations blow up as the ring radius
# approaches zero.  Below this fraction of r0 the vector fields return NaN,
# which `flow` rejects like any trial step whose error is not finite.
R_FLOOR_FRACTION = 1e-8

N_MAX = 10**6  # the largest ring `lambda_n` sums (O(n)); `reconstruct`'s pair energy is O(n^2) a sample


def _count(name: str, value, floor: int) -> int:
    """value as an int if it is a whole number >= floor (3.0 and np.int64(3) are 3), else
    ValueError naming name: the one check of n, n1/n2, periods, samples, max_points and max_flows."""
    try:
        whole = float(value).is_integer() and value >= floor
    except (TypeError, ValueError, OverflowError):  # not a number, or an int beyond the float range
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
    return int(value)


def _real(name: str, value, bound: str = "") -> float:
    """value as a float if it is a finite real, positive or nonnegative as bound says (np.float32(0.5) is 0.5,
    "0.5" and None are not), else ValueError naming name: the one check of every real input."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and {"": True, "positive": x > 0, "nonnegative": x >= 0}[bound]):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value!r}")
    return x


@functools.cache
def lambda_n(n: int) -> float:
    """Ring interaction constant (1/4) * sum_{k=1..n-1} csc(k*pi/n).

    Collects the mutual attraction of the n ring bodies into a single
    coefficient of 1/r^2.  Strictly increasing in n; lambda_n(2) = 1/4.
    n must be a whole number >= 2 (`_count`) and at most N_MAX; the sum takes O(n) time.
    """
    n = _count("n", n, 2)
    if n > N_MAX:
        raise ValueError(f"n must be at most N_MAX = {N_MAX}, got {n}")
    return 0.25 * math.fsum(1.0 / math.sin(k * math.pi / n) for k in range(1, n))


@dataclass(frozen=True)
class SystemParams:
    """Masses and seed radius of the configuration, stored as floats by `_real`, with derived constants.

    Attributes
    ----------
    n : number of ring bodies (a whole number in [2, N_MAX], stored as an int)
    m : mass of each ring body (> 0)
    M : mass of the axial body (>= 0)
    r0 : radius of the seeding circular solution (> 0)

    Derived properties (G = 1 throughout):
    lam      ring constant lambda_n
    a0       angular parameter of the circular solution, sqrt((lam*m + M)/r0)
    T0       half-period of the axial linearization, pi*sqrt(r0^3/(n*m + M))
    kappa    (M + n*m)/(m*n), stretch factor in the center-to-ring distance
    z_factor M/(m*n), ring-plane offset per unit of axial separation f
    """

    n: int
    m: float
    M: float
    r0: float

    def __post_init__(self):
        object.__setattr__(self, "n", _count("n", self.n, 2))  # an int: range() and JSON need one
        for name, bound in (("m", "positive"), ("M", "nonnegative"), ("r0", "positive")):
            object.__setattr__(self, name, _real(name, getattr(self, name), bound))
        try:
            derived = (self.a0, self.T0, self.kappa, self.kappa**2)
        except OverflowError:  # r0**3 or kappa**2 beyond the float range
            derived = (math.inf,)
        if not all(math.isfinite(v) and v > 0 for v in derived):
            raise ValueError(f"a0, T0 and kappa**2 of {self.to_dict()} must be finite and positive")

    @property
    def lam(self) -> float:
        return lambda_n(self.n)

    @property
    def mass_sum(self) -> float:
        """Total mass M + n*m."""
        return self.M + self.n * self.m

    @property
    def kappa(self) -> float:
        return self.mass_sum / (self.m * self.n)

    @property
    def z_factor(self) -> float:
        return self.M / (self.m * self.n)

    @property
    def a0(self) -> float:
        return math.sqrt((self.lam * self.m + self.M) / self.r0)

    @property
    def T0(self) -> float:
        return math.pi * math.sqrt(self.r0**3 / self.mass_sum)

    def h(self, f: float, r: float) -> float:
        """Distance between the axial body and any ring body."""
        return math.sqrt(r * r + self.kappa**2 * f * f)

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "M": self.M, "r0": self.r0}

    @classmethod
    def from_dict(cls, d: dict) -> "SystemParams":
        missing = {"n", "m", "M", "r0"} - set(d)
        if missing:
            raise ValueError(f"missing parameter keys: {sorted(missing)}")
        # every value read as a float, so "3" is 3; the constructor checks n
        return cls(n=float(d["n"]), m=float(d["m"]), M=float(d["M"]), r0=float(d["r0"]))


def write_json(obj, fh) -> None:
    """Write obj to the text file fh as every JSON file of the package is written."""
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def reduced_initial(b: float, params: SystemParams) -> np.ndarray:
    """Symmetric initial condition: on the x-axis crossing with f = 0."""
    return np.array([0.0, float(b), params.r0, 0.0, 0.0])


def augmented_initial(b: float, params: SystemParams) -> np.ndarray:
    y = np.zeros(15)
    y[:5] = reduced_initial(b, params)
    y[11] = 1.0  # d fdot / d b
    return y


def _field_constants(params: SystemParams, C: float) -> tuple[float, ...]:
    """The constants of `_Field` as Python floats, as params stores them and C is converted to."""
    C = float(C)
    return (params.lam * params.m, params.mass_sum, params.kappa**2,
            params.M, params.r0, C, C * C, R_FLOOR_FRACTION * params.r0)


@dataclass(frozen=True)
class _Field:
    """A vector field written once as source: the state components it reads
    (None for one it never reads), the lines that compute it from them and
    from `constants`, and the expression of each component, all NaN where
    `floor` holds.  `_field_function` compiles it; `integrate` writes it inline."""

    inputs: tuple[str | None, ...]
    lines: tuple[str, ...]
    outputs: tuple[str, ...]
    # lam*m, M + n*m, kappa^2, M, r0, C, C^2 and the collision floor
    constants = "lam_m, mu, kap2, M, r0, C, C2, r_floor"
    floor = "r <= r_floor"


_REDUCED = _Field(
    ("f", "fdot", "r", "rdot", None),
    ("r2 = r * r", "h2 = r2 + kap2 * f * f", "h3 = h2 * sqrt(h2)"),
    ("fdot", "-mu * f / h3", "rdot", "C2 / (r2 * r) - lam_m / r2 - M * r / h3", "C / r2"),
)
# The reduced field, then the a- and b-sensitivity columns: Gf .. Sr is the
# Jacobian of the (fdot, rdot) equations w.r.t. (f, r), and Sa .. Qa the
# explicit dependence on a through C = r0*a.
_VARIATIONAL = _Field(
    (*_REDUCED.inputs, "fa", "ga", "ra", "sa", None, "fb", "gb", "rb", "sb", None),
    (*_REDUCED.lines, "r3 = r2 * r", "r4 = r2 * r2", "h5 = h3 * h2",
     "Gf = -mu * (h2 - 3.0 * kap2 * f * f) / h5", "Gr = 3.0 * mu * f * r / h5", "Sf = 3.0 * M * kap2 * f * r / h5",
     "Sr = -3.0 * C2 / r4 + 2.0 * lam_m / r3 - M * (h2 - 3.0 * r2) / h5",
     "Sa = 2.0 * r0 * C / r3", "Qr = -2.0 * C / r3", "Qa = r0 / r2"),
    (*_REDUCED.outputs, "ga", "Gf * fa + Gr * ra", "sa", "Sf * fa + Sr * ra + Sa", "Qr * ra + Qa",
     "gb", "Gf * fb + Gr * rb", "sb", "Sf * fb + Sr * rb", "Qr * rb"),
)


def _compile(source: str, filename: str, name: str):
    """The function `name` of source, compiled as filename and shown by tracebacks and inspect."""
    linecache.cache[filename] = (len(source), None, source.splitlines(keepends=True), filename)
    namespace = {"sqrt": math.sqrt, "nan": math.nan}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@functools.cache
def _field_function(field: _Field):
    """rhs(*constants, t, y) of field, compiled on first use; rhs.field is field, for `integrate`."""
    n = len(field.inputs)
    unpack = "".join(f"{name or '_'}, " for name in field.inputs)
    rhs = _compile("\n".join([
        f"def rhs({field.constants}, t, y):",
        f"    {unpack}= y",
        f"    if {field.floor}:",
        f"        return (nan,) * {n}",
        *(f"    {line}" for line in field.lines),
        f"    return ({', '.join(field.outputs)},)\n",
    ]), f"<ringorbits.model field n={n}>", "rhs")
    rhs.field = field
    return rhs


def make_reduced_rhs(params: SystemParams, C: float):
    """Return rhs(t, y) for the 5-component reduced state, y = (f, fdot, r, rdot, theta).

    C is the angular momentum r^2 * thetadot = r0 * a.  Returns NaN in every
    component when the ring radius is at or below the collision floor (at
    r = 0 the equations would divide by zero), and otherwise a tuple of
    Python floats: the function of `_REDUCED`, its constants bound by functools.partial.
    """
    return functools.partial(_field_function(_REDUCED), *_field_constants(params, C))


def make_variational_rhs(params: SystemParams, C: float):
    """Return rhs(t, y) for the 15-component state of `augmented_initial`.

    Layout: base reduced state (5), then the a-sensitivity column (5), then
    the b-sensitivity column (5).  The a-column carries the explicit
    dependence of the equations on a through C = r0*a.  Returns a tuple of
    floats, NaN below the collision floor: the function of `_VARIATIONAL`, bound alike.
    """
    return functools.partial(_field_function(_VARIATIONAL), *_field_constants(params, C))


def reduced_energy(y, params: SystemParams, C: float) -> float:
    """Total mechanical energy of the reduced state y = (f, fdot, r, rdot, theta).

    Constant along solutions of the reduced equations for any fixed C.
    """
    f, fdot, r, rdot = (float(v) for v in np.asarray(y, dtype=float)[:4])
    if r <= 0:
        raise ValueError(f"ring radius {r!r} is not positive")
    n, m, M = params.n, params.m, params.M
    h = params.h(f, r)
    kinetic = (M * params.mass_sum / (2.0 * m * n)) * fdot**2 + 0.5 * n * m * (rdot**2 + (C / r) ** 2)
    potential = -n * m * m * params.lam / r - n * m * M / h
    return kinetic + potential


@dataclass(frozen=True)
class CartesianState:
    """Positions and velocities of all n+1 bodies; the axial body comes first.

    positions and velocities may carry leading axes, one entry per state.
    """

    masses: np.ndarray      # (n+1,)
    positions: np.ndarray   # (..., n+1, 3)
    velocities: np.ndarray  # (..., n+1, 3)


def cartesian_lift(y, params: SystemParams, C: float) -> CartesianState:
    """Rebuild the full (n+1)-body configuration from reduced states.

    y holds states (f, fdot, r, rdot, theta) along its last axis, shape
    (..., 5); positions and velocities come back as (..., n+1, 3).  The
    axial body sits at (0, 0, f); ring body k sits at phase
    theta + 2*pi*k/n in the plane z = -(M/(m*n))*f, so the center of mass
    stays at the origin.  Velocities follow by the chain rule with
    thetadot = C/r^2.
    """
    n, m, M = params.n, params.m, params.M
    y = np.asarray(y, dtype=float)
    f, fdot, r, rdot, theta = (y[..., k, None] for k in range(5))
    thetadot = C / (r * r)
    zf = params.z_factor

    phases = theta + 2.0 * math.pi * np.arange(n) / n
    cos_p = np.cos(phases)
    sin_p = np.sin(phases)

    positions = np.zeros(y.shape[:-1] + (n + 1, 3))
    velocities = np.zeros(y.shape[:-1] + (n + 1, 3))
    positions[..., 0, 2] = f[..., 0]
    velocities[..., 0, 2] = fdot[..., 0]
    positions[..., 1:, 0] = r * cos_p
    positions[..., 1:, 1] = r * sin_p
    positions[..., 1:, 2] = -zf * f
    velocities[..., 1:, 0] = rdot * cos_p - r * thetadot * sin_p
    velocities[..., 1:, 1] = rdot * sin_p + r * thetadot * cos_p
    velocities[..., 1:, 2] = -zf * fdot

    masses = np.concatenate(([M], np.full(n, m)))
    return CartesianState(masses=masses, positions=positions, velocities=velocities)


# Pairs whose separations `cartesian_energy` holds at once: 6 MB of them.
_PAIR_BLOCK = 1 << 18


def cartesian_energy(state: CartesianState):
    """Kinetic plus pairwise gravitational potential energy, one per state.

    The states are taken in blocks of about _PAIR_BLOCK pairs, at least one
    state each, so that memory stays bounded for rings of hundreds of bodies.
    """
    mass = state.masses
    kinetic = 0.5 * np.sum(mass * np.sum(state.velocities**2, axis=-1), axis=-1)
    i, j = np.triu_indices(len(mass), 1)
    mm = mass[i] * mass[j]
    pos = state.positions.reshape(-1, len(mass), 3)
    rows = max(1, _PAIR_BLOCK // len(mm))
    potential = np.empty(len(pos))
    for lo in range(0, len(pos), rows):
        d = pos[lo : lo + rows, j] - pos[lo : lo + rows, i]
        dist2 = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
        # A running total in pair order, as a pair loop sums: np.sum changes
        # its order with the array's shape, and a state's energy with it.
        potential[lo : lo + rows] = -np.cumsum(mm / np.sqrt(dist2), axis=-1)[:, -1]
    return kinetic + potential.reshape(kinetic.shape)


def center_of_mass(state: CartesianState) -> np.ndarray:
    return state.masses @ state.positions / float(np.sum(state.masses))


def total_momentum(state: CartesianState) -> np.ndarray:
    return state.masses @ state.velocities


def total_angular_momentum(state: CartesianState) -> np.ndarray:
    return np.sum(state.masses[:, None] * np.cross(state.positions, state.velocities), axis=-2)
