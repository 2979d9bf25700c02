"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with velocity Verlet under free boundaries: pair terms whose
partner index leaves the chain are omitted, so total momentum is conserved
exactly. A solved wave provides initial data through the exact-solution form
u_j(t) = eps U(eps j - eps c t), and transport quality is measured on an
interior window against the translated velocity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import WindowOverflowError
from .grid import GridFunction, apply_symbol, sample, sup_norm
from .model import ChainModel
from .solver import WaveSolution

__all__ = [
    "LatticeState",
    "acceleration",
    "step",
    "total_energy",
    "total_momentum",
    "wave_initial_data",
    "TransportReport",
    "run_transport",
    "transport_error",
    "energy_drift_rate",
]

_DT_GUARD = 0.1
_SUPPORT_THRESHOLD = 1e-6
_BUFFER_FACTOR = 4


@dataclass
class LatticeState:
    """Positions and velocities of a finite free-boundary chain at one time."""

    model: ChainModel
    positions: NDArray[np.float64]
    velocities: NDArray[np.float64]
    time: float = 0.0

    def __post_init__(self) -> None:
        self.positions = np.array(self.positions, dtype=float, copy=True)
        self.velocities = np.array(self.velocities, dtype=float, copy=True)
        if self.positions.shape != self.velocities.shape or self.positions.ndim != 1:
            raise ValueError("positions and velocities must be matching 1-d arrays")
        if len(self.positions) < 2 * self.model.neighbor_range + 2:
            raise ValueError(
                f"need at least {2 * self.model.neighbor_range + 2} particles "
                f"for neighbor range {self.model.neighbor_range}"
            )
        if not (np.all(np.isfinite(self.positions)) and np.all(np.isfinite(self.velocities))):
            raise ValueError("state entries must be finite")

    @property
    def size(self) -> int:
        return len(self.positions)


def acceleration(state: LatticeState, linear_only: bool = False) -> NDArray[np.float64]:
    """Net force per unit mass; out-of-range pair terms are omitted.

    ``linear_only`` is a testing hook keeping only the alpha_m r part of the
    force law.
    """
    u = state.positions
    out = np.zeros_like(u)
    for m in range(1, state.model.neighbor_range + 1):
        stretch = u[m:] - u[:-m]
        if linear_only:
            pair_force = state.model.alpha[m - 1] * stretch
        else:
            pair_force = np.asarray(state.model.force(m, stretch))
        out[:-m] += pair_force
        out[m:] -= pair_force
    return out


def step(state: LatticeState, dt: float, linear_only: bool = False) -> LatticeState:
    """One velocity Verlet step; second order and symplectic.

    dt must be positive and at most 0.1/c0.
    """
    guard = _DT_GUARD / math.sqrt(state.model.sound_speed_sq)
    if not 0 < dt <= guard * (1.0 + 1e-12):
        raise ValueError(f"dt must be in (0, {guard:g}], got {dt}")
    accel = acceleration(state, linear_only)
    positions = state.positions + dt * state.velocities + 0.5 * dt**2 * accel
    trial = LatticeState(state.model, positions, state.velocities, state.time)
    accel_new = acceleration(trial, linear_only)
    velocities = state.velocities + 0.5 * dt * (accel + accel_new)
    return LatticeState(state.model, positions, velocities, state.time + dt)


def total_energy(state: LatticeState) -> float:
    """Kinetic plus pair-potential energy over in-range pairs."""
    energy = 0.5 * float(np.sum(state.velocities**2))
    u = state.positions
    for m in range(1, state.model.neighbor_range + 1):
        energy += float(np.sum(state.model.potential(m, u[m:] - u[:-m])))
    return energy


def total_momentum(state: LatticeState) -> float:
    return float(np.sum(state.velocities))


def wave_initial_data(solution: WaveSolution, num_particles: int) -> LatticeState:
    """Chain state sampling the wave centered at the chain midpoint.

    Particle j sits at phase x_j = eps (j - J/2); positions come from the
    antiderivative of the velocity profile and velocities from
    -eps^2 c w(x_j). The phase window eps*J must fit inside the profile
    domain.
    """
    model = solution.model
    eps = solution.epsilon
    grid = solution.grid
    if num_particles < 2 * model.neighbor_range + 2:
        raise ValueError(
            f"need at least {2 * model.neighbor_range + 2} particles, "
            f"got {num_particles}"
        )
    if eps * num_particles > 2.0 * grid.half_length:
        raise WindowOverflowError(
            f"phase window eps*J = {eps * num_particles:g} exceeds the "
            f"profile domain 2L = {2 * grid.half_length:g}"
        )
    phases = eps * (np.arange(num_particles) - num_particles / 2.0)
    positions = eps * _position_profile(solution.w, phases)
    velocities = -(eps**2) * solution.wave_speed * sample(solution.w, phases)
    return LatticeState(model, positions, velocities, 0.0)


def _position_profile(w, points) -> NDArray[np.float64]:
    """Antiderivative of the band-limited interpolant with value 0 at -L.

    The nonzero mean of w makes the antiderivative a ramp plus a periodic
    part; the periodic part is the multiplier 1/(ik), zeroed at k = 0 and at
    the Nyquist mode, sampled at the points.
    """
    grid = w.grid
    k = grid.half_wavenumbers
    symbol = np.zeros(len(k), dtype=complex)
    symbol[1:-1] = 1.0 / (1j * k[1:-1])
    periodic = GridFunction(grid, apply_symbol(w.values, symbol))
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    ramp = float(np.mean(w.values)) * (pts + grid.half_length)
    return ramp + sample(periodic, pts) - periodic.values[0]


@dataclass(frozen=True)
class TransportReport:
    """Measured transport quality of a wave over one lattice run."""

    num_particles: int
    dt: float
    horizon: float
    steps: int
    transport_error: float
    energy_drift: float
    peak_energy_deviation: float
    momentum_drift_per_step: float


def run_transport(
    solution: WaveSolution,
    num_particles: int,
    horizon: float,
    dt: float,
) -> TransportReport:
    """Integrate wave initial data to time ``horizon`` and compare profiles.

    The step count is rounded up so the run hits the horizon exactly with a
    step no larger than ``dt`` (the actual dt is reported); a quotient
    horizon / dt within 1e-12 relative of an integer counts as that
    integer, so round-off neither adds a step nor takes dt past ``step``'s
    guard. The transport error is the sup over the interior window, 4M
    sites in from each end, of the velocity mismatch against the translated
    profile, normalized by the peak initial speed. Energy drift is the secular trend of the sampled
    energies (least-squares slope times duration, relative to the initial
    energy), which isolates the symplectic property from the bounded
    oscillation of the shadow energy; the peak deviation is reported
    alongside.
    """
    model = solution.model
    eps = solution.epsilon
    speed = solution.wave_speed
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    buffer = _BUFFER_FACTOR * model.neighbor_range
    if num_particles <= 2 * buffer:
        raise ValueError(
            f"chain of {num_particles} has no interior for buffer {buffer}"
        )
    peak = sup_norm(solution.w)
    support = solution.grid.nodes[solution.w.values > _SUPPORT_THRESHOLD * peak]
    half_width = float(np.max(np.abs(support))) if len(support) else 0.0
    window = eps * (num_particles / 2.0 - buffer)
    travel = eps * speed * horizon
    if half_width + travel > window:
        raise WindowOverflowError(
            f"support half-width {half_width:g} plus travel {travel:g} "
            f"exceeds the interior window {window:g}"
        )
    state = wave_initial_data(solution, num_particles)
    if horizon > 0:
        quotient = horizon / dt
        steps = round(quotient)
        if abs(quotient - steps) > 1e-12 * quotient:
            steps = math.ceil(quotient)
        steps = max(1, steps)
        dt_used = horizon / steps
    else:
        steps = 0
        dt_used = dt
    energies = [total_energy(state)]
    momentum_start = total_momentum(state)
    for _ in range(steps):
        state = step(state, dt_used)
        energies.append(total_energy(state))
    energies = np.asarray(energies)
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * sample(solution.w, phases)
    interior = slice(buffer, num_particles - buffer)
    scale = eps**2 * speed * peak
    error = float(np.max(np.abs(state.velocities[interior] - predicted[interior]))) / scale
    momentum_drift = (
        abs(total_momentum(state) - momentum_start) / steps if steps else 0.0
    )
    return TransportReport(
        num_particles=num_particles,
        dt=dt_used,
        horizon=horizon,
        steps=steps,
        transport_error=error,
        energy_drift=energy_drift_rate(energies, dt_used),
        peak_energy_deviation=_peak_deviation(energies),
        momentum_drift_per_step=momentum_drift,
    )


def transport_error(
    solution: WaveSolution,
    num_particles: int,
    horizon: float,
    dt: float,
) -> float:
    """Normalized interior velocity-profile mismatch after transport."""
    return run_transport(solution, num_particles, horizon, dt).transport_error


def energy_drift_rate(energies, dt: float) -> float:
    """Secular energy drift over a run: |fit slope| * duration / |E(0)|."""
    energies = np.asarray(energies, dtype=float)
    if len(energies) < 2:
        return 0.0
    times = dt * np.arange(len(energies))
    slope = np.polyfit(times, energies, 1)[0]
    reference = abs(energies[0])
    if reference == 0.0:
        return abs(float(slope)) * times[-1]
    return abs(float(slope)) * times[-1] / reference


def _peak_deviation(energies: NDArray[np.float64]) -> float:
    reference = abs(energies[0])
    peak = float(np.max(np.abs(energies - energies[0])))
    return peak / reference if reference else peak
