"""Resonant orbit selection, full-space reconstruction and export.

A corrected family member closes in the reduced variables after one
period 2T, but each reduced period also turns the lifted configuration by
twice the phase theta accumulated over [0, T].  When theta is a rational
angle n1*pi/n2 the lifted orbit is periodic too: strictly after at most n2
reduced periods, or earlier up to relabeling of the identical ring bodies.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .continuation import Branch
from .integrate import IntegratorConfig, flow
from .model import (
    CartesianState,
    SystemParams,
    _count,
    cartesian_energy,
    cartesian_lift,
    center_of_mass,
    make_reduced_rhs,
    reduced_initial,
    total_angular_momentum,
    total_momentum,
)
from .shoot import ConvergenceError, SeedPoint, SymmetryKind, newton_correct, phase, require_above_floor

__all__ = [
    "ResonanceNotFound",
    "ResonanceTarget",
    "closure_order",
    "find_resonance",
    "Trajectory",
    "reconstruct",
    "export",
    "load_trajectory",
    "trajectory_filename",
]


class ResonanceNotFound(RuntimeError):
    """The requested phase angle is not bracketed by the branch."""


@dataclass(frozen=True)
class ResonanceTarget:
    """Rational phase target theta = n1*pi/n2 in lowest terms."""

    n1: int
    n2: int

    def __post_init__(self):
        for name in ("n1", "n2"):  # 3.0 as 3, for gcd and the tag
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        if math.gcd(self.n1, self.n2) != 1:
            raise ValueError(f"resonance fraction {self.n1}/{self.n2} is not in lowest terms")

    @property
    def angle(self) -> float:
        return self.n1 * math.pi / self.n2

    @property
    def tag(self) -> str:
        return f"{self.n1}pi{self.n2}"


def closure_order(target: ResonanceTarget, n: int) -> tuple[int, int]:
    """Reduced periods until the lifted orbit closes: (strict, up to relabeling).

    A reduced period spans 2T, so it turns the ring by 2*theta =
    2*n1*pi/n2.  Strict closure needs k*n1/n2 to be an integer, so k = n2
    as n1/n2 is in lowest terms; with the n identical ring bodies
    relabeled, a turn by any multiple of 2*pi/n also closes, so
    k = n2/gcd(n, n2).  n must be a whole number >= 2.
    """
    return target.n2, target.n2 // math.gcd(_count("n", n, 2), target.n2)


def find_resonance(
    branch: Branch,
    target: ResonanceTarget,
    config: IntegratorConfig | None = None,
) -> SeedPoint:
    """Locate the branch member whose phase equals the target angle.

    The first pair of stored points whose phases bracket the angle (a
    stored phase equal to it included) gives the start: the point of their
    chord interpolated linearly in the phase gaps.  One Newton solve with
    the phase row (`shoot.phase`) then lands on the member, with
    |theta - angle| and the residuals within the corrector's default
    tolerance.

    Raises ResonanceNotFound when no pair brackets the angle, and
    ConvergenceError when the corrector fails or lands on a member whose
    projection onto the bracketing chord falls outside it.
    """
    params = branch.params
    angle = target.angle
    pts = branch.points
    if len(pts) < 2:
        raise ResonanceNotFound("branch carries fewer than two points")

    gap = [bp.point.theta - angle for bp in pts]
    idx = None
    for i in range(len(pts) - 1):
        # equal gaps give no chord to interpolate along
        if gap[i] * gap[i + 1] <= 0.0 and gap[i] != gap[i + 1]:
            idx = i
            break
    if idx is None:
        lo, hi = min(gap), max(gap)
        raise ResonanceNotFound(
            f"phase {angle!r} not bracketed: branch covers offsets [{lo:.3e}, {hi:.3e}]"
        )

    x_lo = pts[idx].point.vector()
    chord = pts[idx + 1].point.vector() - x_lo
    x0 = x_lo + gap[idx] / (gap[idx] - gap[idx + 1]) * chord
    lo, hi = pts[idx].point.kind, pts[idx + 1].point.kind  # their form, or odd where they differ
    guess = SeedPoint(*x0, kind=lo if lo is hi else SymmetryKind.ODD)
    pt = newton_correct(guess, params, config, constraint=phase(angle))
    w = float(np.dot(pt.vector() - x_lo, chord) / np.dot(chord, chord))
    if not 0.0 <= w <= 1.0:
        raise ConvergenceError(
            f"phase {angle!r} solved at chord position {w:.3f}, outside its bracket [0, 1]",
            "off-bracket",
        )
    return pt


@dataclass
class Trajectory:
    """Sampled full-space orbit with conservation diagnostics.

    positions/velocities have shape (n_samples, n+1, 3) with the axial
    body first.  diagnostics holds scalar maxima over the samples (see
    `reconstruct`).
    """

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    masses: np.ndarray
    params: SystemParams
    source: SeedPoint
    periods: int
    diagnostics: dict


def _closure_errors(state: CartesianState, n: int) -> tuple[float, float]:
    """Closure error between the first and last states, and its minimum over
    cyclic relabelings of the ring bodies; shift 0 is the identity order."""
    errs = []
    p0, v0 = state.positions[0], state.velocities[0]
    p1, v1 = state.positions[-1], state.velocities[-1]
    for shift in range(n):
        ring = 1 + (np.arange(n) + shift) % n
        order = np.concatenate(([0], ring))
        err = np.max(
            np.linalg.norm(p1[order] - p0, axis=1) + np.linalg.norm(v1[order] - v0, axis=1)
        )
        errs.append(float(err))
    return errs[0], min(errs)


def reconstruct(
    point: SeedPoint,
    params: SystemParams,
    periods: int = 1,
    samples_per_period: int = 512,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Flow a corrected point over whole periods and lift every sample.

    The reduced period is 2T.  Diagnostics, all
    maxima over the samples:
      energy_drift     relative spread of the full-system energy
      momentum_max     largest |total momentum| component
      com_max          center-of-mass distance from the origin over r0
      lz_drift         relative drift of the z angular momentum
      closure_error    max over bodies of |dx| + |dv| between endpoints
      closure_error_relabel  same, minimized over ring relabelings
    A point with T <= T_LOWER*T0, or periods or samples_per_period not a
    whole number >= 1 or >= 2 (3.0 is 3), raises ValueError before any flow,
    and an orbit with a diagnostic that is not finite raises ValueError.
    """
    require_above_floor(point.T, params)
    periods, samples_per_period = _count("periods", periods, 1), _count("samples_per_period", samples_per_period, 2)
    config = config or IntegratorConfig()
    t_end = periods * point.period
    cfg = replace(config, dense=True, h_max=config.h_max if config.h_max is not None else point.T / 16.0)
    C = params.r0 * point.a
    rhs = make_reduced_rhs(params, C)
    res = flow(rhs, reduced_initial(point.b, params), t_end, cfg).require_ok()

    n_samples = periods * samples_per_period + 1
    times = np.linspace(0.0, t_end, n_samples)
    times[-1] = t_end  # exact endpoint, bit for bit
    state = cartesian_lift(res.dense.sample(times), params, C)
    with np.errstate(all="ignore"):
        energies = cartesian_energy(state)
        momenta = total_momentum(state)
        coms = center_of_mass(state)
        lzs = total_angular_momentum(state)[:, 2]
        closure, closure_relabel = _closure_errors(state, params.n)
        e_scale = max(abs(float(np.max(energies))), abs(float(np.min(energies))), 1e-300)
        lz_scale = max(float(np.max(np.abs(lzs))), 1e-300)
        diagnostics = {
            "energy_drift": float((np.max(energies) - np.min(energies)) / e_scale),
            "momentum_max": float(np.max(np.abs(momenta))),
            "com_max": float(np.max(np.linalg.norm(coms, axis=1)) / params.r0),
            "lz_drift": float((np.max(lzs) - np.min(lzs)) / lz_scale),
            "closure_error": closure,
            "closure_error_relabel": closure_relabel,
        }
    bad = [key for key, value in diagnostics.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"orbit leaves the float range: {', '.join(bad)} not finite")
    return Trajectory(
        times=times,
        positions=state.positions,
        velocities=state.velocities,
        masses=state.masses,
        params=params,
        source=point,
        periods=periods,
        diagnostics=diagnostics,
    )


# Samples formatted per write: an export holds the text of one block at a time.
_EXPORT_BLOCK = 256


def _write_blocks(fh, n: int, cut, item: str, sep: str) -> None:
    """Write n samples through the per-sample %s template item; cut(slice) is a block's array.

    A column of a block is one float slot over its samples.  Columns with
    the same bit patterns (so 0.0 and -0.0 stay apart) are formatted once:
    a lifted orbit repeats t per body, the axial body's zeros and the ring's z and vz.
    """
    for i in range(0, n, _EXPORT_BLOCK):
        block = cut(slice(i, i + _EXPORT_BLOCK))
        cols = block.reshape(len(block), -1).T
        keys = [col.tobytes() for col in cols]
        text = {key: list(map(repr, col.tolist())) for key, col in dict(zip(keys, cols)).items()}
        cells = chain.from_iterable(zip(*map(text.__getitem__, keys)))  # back in sample order
        fh.write((sep if i else "") + sep.join([item] * len(block)) % tuple(cells))


def export(traj: Trajectory, fmt: str, path) -> None:
    """Write a trajectory as 'csv' (flat body rows) or 'json' (full record).

    Floats are written with repr, so a JSON export re-imports bit for bit.
    """
    t, p, v = traj.times, traj.positions, traj.velocities
    for name, arr in (("times", t), ("positions", p), ("velocities", v)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"trajectory {name} holds a value that is not finite")
    if fmt == "csv":
        item = "".join(f"%s,{body},%s,%s,%s,%s,%s,%s\n" for body in range(p.shape[1]))
        rows = lambda s: np.dstack((np.broadcast_to(t[s, None], p[s].shape[:2]), p[s], v[s]))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,body,x,y,z,vx,vy,vz\n")
            _write_blocks(fh, len(t), rows, item, "")
    elif fmt == "json":
        # model.write_json's text; a sample array is json's layout of one sample, %s per zero
        payload = {
            "params": traj.params.to_dict(),
            "source": traj.source.to_dict(),
            "periods": traj.periods,
            "masses": traj.masses.tolist(),
            "diagnostics": traj.diagnostics,
            **dict.fromkeys(("positions", "times", "velocities"), "\0"),
        }
        pieces = json.dumps(payload, indent=2, sort_keys=True).split(json.dumps("\0"))
        with open(path, "w", encoding="utf-8") as fh:
            for piece, arr in zip(pieces, (p, t, v)):  # the sorted order of their keys
                item = json.dumps(np.zeros(arr.shape[1:]).tolist(), indent=2).replace("0.0", "%s")
                fh.write(piece + "[")
                _write_blocks(fh, len(arr), arr.__getitem__, "\n    " + item.replace("\n", "\n    "), ",")
                fh.write("\n  ]" if len(arr) else "]")
            fh.write(pieces[-1] + "\n")
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected 'csv' or 'json'")


def load_trajectory(path) -> Trajectory:
    """Re-import a JSON export; floats round-trip exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return Trajectory(
        times=np.array(payload["times"]),
        positions=np.array(payload["positions"]),
        velocities=np.array(payload["velocities"]),
        masses=np.array(payload["masses"]),
        params=SystemParams.from_dict(payload["params"]),
        source=SeedPoint.from_dict(payload["source"]),
        periods=_count("periods", payload["periods"], 1),
        diagnostics=dict(payload["diagnostics"]),
    )


def trajectory_filename(point: SeedPoint, target: ResonanceTarget, ext: str = "csv") -> str:
    """Deterministic name odd_<n1>pi<n2>_<hash>.<ext> from the seed values."""
    digest = hashlib.sha256(
        json.dumps(point.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()[:8]
    return f"odd_{target.tag}_{digest}.{ext}"
