"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with velocity Verlet under free boundaries: pair terms whose
partner index leaves the chain are omitted, so total momentum is conserved
exactly. The stretches u_{j+m} - u_j of all M ranges sit in one zero-padded
(M, J) block, which ``ChainModel.pair_laws`` turns into forces and pair
potentials in place; the acceleration is the column sum of the force block
minus each row shifted by its range. A transport run allocates these blocks
and its Verlet vectors once, evaluates the pair terms once per step, and
takes each step's energy from the same stretches as its forces. A solved
wave provides initial data through the exact-solution form
u_j(t) = eps U(eps j - eps c t), and transport quality is measured on an
interior window against the translated velocity profile.
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
    return _PairBlock(state.model, state.size, linear_only).evaluate(state.positions)[0]


def step(state: LatticeState, dt: float, linear_only: bool = False) -> LatticeState:
    """One velocity Verlet step; second order and symplectic.

    dt must be positive and at most 0.1/c0.
    """
    _check_dt(state.model, dt)
    block = _PairBlock(state.model, state.size, linear_only)
    positions, velocities = state.positions.copy(), state.velocities.copy()
    block.evaluate(positions)
    block.verlet(positions, velocities, dt)
    return LatticeState(state.model, positions, velocities, state.time + dt)


def total_energy(state: LatticeState) -> float:
    """Kinetic plus pair-potential energy over in-range pairs."""
    _, potential = _PairBlock(state.model, state.size).evaluate(state.positions)
    return _energy(state.velocities, potential)


class _PairBlock:
    """Pair terms of one chain length, evaluated for all ranges at once.

    Row m - 1 of the (M, J) stretch block holds u_{j+m} - u_j for
    j < J - m and zeros beyond; the zero padding is exact, since every force
    law and potential vanishes at r = 0. The stretch, force, potential,
    acceleration and scratch buffers are allocated once and reused by every
    evaluation and Verlet step.
    """

    def __init__(self, model: ChainModel, size: int, linear_only: bool = False) -> None:
        shape = (model.neighbor_range, size)
        self.model = model
        self.linear_only = linear_only
        self.stretch = np.zeros(shape)
        self.force = np.empty(shape)
        self.potential = np.empty(shape)
        self.accel = np.empty(size)
        self.scratch = np.empty(size)

    def evaluate(self, positions):
        """Acceleration (the ``accel`` buffer) and total pair potential.

        The force on j from its bond to j + m is row m - 1 at j, so the
        acceleration is the column sum of the force block minus each row
        shifted by its range.
        """
        size = len(positions)
        for m, row in enumerate(self.stretch, start=1):
            np.subtract(positions[m:], positions[:-m], out=row[: size - m])
        self.model.pair_laws(self.stretch, self.force, self.potential, self.linear_only)
        np.add.reduce(self.force, axis=0, out=self.accel)
        for m, row in enumerate(self.force, start=1):
            self.accel[m:] -= row[: size - m]
        return self.accel, float(np.add.reduce(self.potential, axis=None))

    def verlet(self, positions, velocities, dt: float) -> float:
        """One velocity Verlet step in place, kick-drift-kick.

        Starts from positions whose acceleration ``accel`` holds and leaves
        there the acceleration at the new positions, which the next step
        starts from; returns the pair potential at the new positions.
        """
        half = 0.5 * dt
        np.multiply(self.accel, half, out=self.scratch)
        velocities += self.scratch
        np.multiply(velocities, dt, out=self.scratch)
        positions += self.scratch
        _, potential = self.evaluate(positions)
        np.multiply(self.accel, half, out=self.scratch)
        velocities += self.scratch
        return potential


def _energy(velocities, potential: float) -> float:
    return 0.5 * float(np.dot(velocities, velocities)) + potential


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
    interpolant of w at the points, from one two-column ``sample`` call
    sharing its exponential tables.

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

    The loop is ``step`` and ``total_energy`` in place on one pair block:
    each step evaluates the pair terms once, at its new positions, giving
    the acceleration it ends with (and the next step starts from) and the
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
    block = _PairBlock(model, num_particles)
    _, potential = block.evaluate(positions)
    energies = np.empty(steps + 1)
    energies[0] = _energy(velocities, potential)
    for n in range(1, steps + 1):
        potential = block.verlet(positions, velocities, dt_used)
        energies[n] = _energy(velocities, potential)
        if not math.isfinite(energies[n]):
            raise ValueError(
                f"state entries must be finite; the energy after step {n} "
                f"is {energies[n]}"
            )
    state = LatticeState(model, positions, velocities, horizon)
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * sample(solution.grid, solution.w.values, phases)
    interior = slice(buffer, num_particles - buffer)
    scale = eps**2 * speed * peak
    error = float(np.max(np.abs(state.velocities[interior] - predicted[interior]))) / scale
    momentum_drift = (
        abs(total_momentum(state) - momentum_start) / steps if steps else 0.0
    )
    return TransportReport(
        num_particles=int(num_particles),
        dt=float(dt_used),
        horizon=float(horizon),
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
    drift = abs(float(np.polyfit(times, energies, 1)[0])) * float(times[-1])
    reference = abs(float(energies[0]))
    return drift / reference if reference else drift


def _peak_deviation(energies: NDArray[np.float64]) -> float:
    reference = abs(float(energies[0]))
    peak = float(np.max(np.abs(energies - energies[0])))
    return peak / reference if reference else peak
