"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with velocity Verlet under free boundaries: pair terms whose
partner index leaves the chain are omitted, so total momentum is conserved
exactly. One private pair kernel forms the stretches u_{j+m} - u_j once per
m and returns both the acceleration and the pair-potential sums, so a
transport run evaluates the pair terms once per step and takes each step's
energy from the same stretches as its forces. A solved wave provides
initial data through the exact-solution form u_j(t) = eps U(eps j - eps c t),
and transport quality is measured on an interior window against the
translated velocity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import WindowOverflowError
from .grid import apply_symbol, sample, sup_norm
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
    return _pair_terms(state.model, state.positions, linear_only)[0]


def step(state: LatticeState, dt: float, linear_only: bool = False) -> LatticeState:
    """One velocity Verlet step; second order and symplectic.

    dt must be positive and at most 0.1/c0.
    """
    _check_dt(state.model, dt)
    accel = acceleration(state, linear_only)
    positions, velocities, _, _ = _verlet(
        state.model, state.positions, state.velocities, accel, dt, linear_only
    )
    return LatticeState(state.model, positions, velocities, state.time + dt)


def total_energy(state: LatticeState) -> float:
    """Kinetic plus pair-potential energy over in-range pairs."""
    _, potentials = _pair_terms(state.model, state.positions)
    return _energy(state.velocities, potentials)


def _pair_terms(model: ChainModel, positions, linear_only: bool = False):
    """Acceleration and the per-m pair-potential sums of one configuration.

    Each m forms its stretches u_{j+m} - u_j once and feeds them to both the
    force law and the potential. ``linear_only`` keeps the alpha_m r part of
    both.
    """
    accel = np.zeros_like(positions)
    potentials = []
    for m in range(1, model.neighbor_range + 1):
        stretch = positions[m:] - positions[:-m]
        if linear_only:
            alpha = model.alpha[m - 1]
            pair_force = alpha * stretch
            pair_potential = 0.5 * alpha * stretch**2
        else:
            pair_force = model.force(m, stretch)
            pair_potential = model.potential(m, stretch)
        accel[:-m] += pair_force
        accel[m:] -= pair_force
        potentials.append(float(np.sum(pair_potential)))
    return accel, potentials


def _energy(velocities, potentials) -> float:
    energy = 0.5 * float(np.sum(velocities**2))
    for potential in potentials:
        energy += potential
    return energy


def _verlet(
    model: ChainModel, positions, velocities, accel, dt: float, linear_only: bool = False
):
    """Velocity Verlet from a configuration whose acceleration is known.

    Returns the new positions and velocities and the pair terms at the new
    positions, so the next step starts from the acceleration computed here.
    """
    positions = positions + dt * velocities + 0.5 * dt**2 * accel
    accel_new, potentials = _pair_terms(model, positions, linear_only)
    velocities = velocities + 0.5 * dt * (accel + accel_new)
    return positions, velocities, accel_new, potentials


def _check_dt(model: ChainModel, dt: float) -> None:
    guard = _DT_GUARD / math.sqrt(model.sound_speed_sq)
    if not 0 < dt <= guard * (1.0 + 1e-12):
        raise ValueError(f"dt must be in (0, {guard:g}], got {dt}")


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
    antiderivative, values = _initial_profiles(solution.w, phases)
    positions = eps * antiderivative
    velocities = -(eps**2) * solution.wave_speed * values
    return LatticeState(model, positions, velocities, 0.0)


def _initial_profiles(w, points):
    """Antiderivative with value 0 at -L and values of the band-limited
    interpolant of w at the points, from one shared phase matrix.

    The nonzero mean of w makes the antiderivative a ramp plus a periodic
    part; the periodic part is the multiplier 1/(ik), zeroed at k = 0 and at
    the Nyquist mode.
    """
    grid = w.grid
    k = grid.half_wavenumbers
    symbol = np.zeros(len(k), dtype=complex)
    symbol[1:-1] = 1.0 / (1j * k[1:-1])
    periodic = apply_symbol(w.values, symbol)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    columns = sample(grid, np.column_stack([periodic, w.values]), pts)
    ramp = float(np.mean(w.values)) * (pts + grid.half_length)
    return ramp + columns[:, 0] - periodic[0], columns[:, 1]


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
    profile, normalized by the peak initial speed. Energy drift is the
    secular trend of the sampled energies (least-squares slope times
    duration, relative to the initial energy), which isolates the symplectic
    property from the bounded oscillation of the shadow energy; the peak
    deviation is reported alongside.

    The loop is ``step`` and ``total_energy`` on bare arrays: each step
    evaluates the pair terms once, at its new positions, giving the
    acceleration it ends with (and the next step starts from) and the
    energy it records. A run whose energy stops being finite raises
    ``ValueError``.
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
        _check_dt(model, dt_used)
    else:
        steps = 0
        dt_used = dt
    momentum_start = total_momentum(state)
    positions, velocities = state.positions, state.velocities
    accel, potentials = _pair_terms(model, positions)
    energies = [_energy(velocities, potentials)]
    for n in range(steps):
        positions, velocities, accel, potentials = _verlet(
            model, positions, velocities, accel, dt_used
        )
        energies.append(_energy(velocities, potentials))
        if not math.isfinite(energies[-1]):
            raise ValueError(
                f"state entries must be finite; the energy after step {n + 1} "
                f"is {energies[-1]}"
            )
    state = LatticeState(model, positions, velocities, horizon)
    energies = np.asarray(energies)
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * sample(solution.grid, solution.w.values, phases)
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
