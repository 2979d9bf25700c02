"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with velocity Verlet under free boundaries: pair terms whose
partner index leaves the chain are omitted, so total momentum is conserved
exactly. The stretches u_{j+m} - u_j of all M ranges sit in one zero-padded
(M, J) block, which ``ChainModel.pair_laws`` turns into forces or pair
potentials in place; the acceleration is the column sum of the force block
minus each row shifted by its range. A transport run allocates its buffers
once and evaluates only the forces per step: each step keeps its stretch
block in one slot of a 16-deep stack and its kinetic energy, and one pass
over the full stack gives the pair potentials of 16 steps. The energies are
bitwise those of ``total_energy`` after each ``step``. A solved
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
_BATCH = 16  # Verlet steps whose pair potentials one stacked evaluation covers


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
    return _PairBlock(state.model, state.positions, linear_only).evaluate()


def step(state: LatticeState, dt: float, linear_only: bool = False) -> LatticeState:
    """One velocity Verlet step; second order and symplectic.

    dt must be positive and at most 0.1/c0.
    """
    _check_dt(state.model, dt)
    positions, velocities = state.positions.copy(), state.velocities.copy()
    block = _PairBlock(state.model, positions, linear_only)
    block.start(dt)
    block.verlet(velocities, dt)
    return LatticeState(state.model, positions, velocities, state.time + dt)


def total_energy(state: LatticeState) -> float:
    """Kinetic plus pair-potential energy over in-range pairs."""
    block = _PairBlock(state.model, state.positions)
    block.load()
    (potential,) = block.potentials(1)
    return 0.5 * float(np.dot(state.velocities, state.velocities)) + potential


class _PairBlock:
    """Pair terms of a chain whose positions live in one buffer.

    Slot k of the (depth, M, J) stretch stack is one (M, J) block whose row
    m - 1 holds u_{j+m} - u_j for j < J - m and zeros beyond; the zero
    padding is exact, since every force law and potential vanishes at
    r = 0. Each evaluation writes the stretches of the current positions to
    a slot and turns them into forces at once; the pair potentials of up to
    ``depth`` slots are evaluated later in one pass. The law coefficients,
    buffers and the row views pairing them by range are made once; the
    Verlet steps update the positions buffer in place.
    """

    def __init__(self, model: ChainModel, positions, linear_only: bool = False, depth: int = 1) -> None:
        size = len(positions)
        shape = (model.neighbor_range, size)
        self.model = model
        self.positions = positions
        self.columns = model.law_columns(size, linear_only)
        self.stretches = np.zeros((depth,) + shape)
        self.potential = np.empty((depth,) + shape)
        self.force = np.empty(shape)
        self.accel = np.empty(size)
        self.kick = np.empty(size)
        self.drift = np.empty(size)
        ranges = range(1, model.neighbor_range + 1)
        self._shifts = [(positions[m:], positions[:-m]) for m in ranges]
        self._rows = [[stretch[m - 1, : size - m] for m in ranges] for stretch in self.stretches]
        # the force on j from its bond to j + m is row m - 1 at j, and its
        # reaction on j + m is the same row shifted by m
        self._reactions = [(self.accel[m:], self.force[m - 1, : size - m]) for m in ranges]

    def load(self, slot: int = 0):
        """Write the stretches of the positions to ``slot`` and return it."""
        for (ahead, behind), row in zip(self._shifts, self._rows[slot]):
            np.subtract(ahead, behind, out=row)
        return self.stretches[slot]

    def evaluate(self, slot: int = 0):
        """Acceleration at the positions (the ``accel`` buffer): the column
        sum of the force block minus each row shifted by its range."""
        self.model.pair_laws(self.load(slot), self.force, None, self.columns)
        np.copyto(self.accel, self.force[0])
        for row in self.force[1:]:
            self.accel += row
        for target, row in self._reactions:
            target -= row
        return self.accel

    def potentials(self, count: int) -> list:
        """Total pair potential of each of the first ``count`` slots."""
        potential = self.potential[:count]
        self.model.pair_laws(self.stretches[:count], None, potential, self.columns)
        return np.add.reduce(potential.reshape(count, -1), axis=1).tolist()

    def start(self, dt: float) -> None:
        """Evaluate at the positions into slot 0 and prime ``kick`` for ``verlet``."""
        self.evaluate()
        np.multiply(self.accel, 0.5 * dt, out=self.kick)

    def verlet(self, velocities, dt: float, slot: int = 0) -> None:
        """One velocity Verlet step in place, kick-drift-kick.

        Starts with ``kick`` holding accel dt/2 at the positions and leaves
        it holding that at the new positions, whose stretches go to
        ``slot``: one product serves this step's closing half-kick and the
        next step's opening one.
        """
        velocities += self.kick
        np.multiply(velocities, dt, out=self.drift)
        self.positions += self.drift
        self.evaluate(slot)
        np.multiply(self.accel, 0.5 * dt, out=self.kick)
        velocities += self.kick


def _record_energies(block: _PairBlock, kinetic, energies, first: int) -> None:
    """Energies of steps first, first + 1, ... from the stack's slots and
    the stored kinetic terms, as many as the stack holds or the run has
    left; raises at the first step after step 0 whose energy is not finite."""
    count = min(_BATCH, len(energies) - first)
    energies[first : first + count] = 0.5 * kinetic[:count] + block.potentials(count)
    for n in range(max(first, 1), first + count):
        if not math.isfinite(energies[n]):
            raise ValueError(
                f"state entries must be finite; the energy after step {n} "
                f"is {energies[n]}"
            )


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

    The loop is ``step`` in place on one pair block: each step evaluates
    the forces once, at its new positions, giving the acceleration it ends
    with (and the next step starts from), and stores its stretches and
    kinetic energy. The pair potentials of every 16 steps, and of the steps
    left at the end, come from one evaluation over the stacked stretches;
    the recorded energies are bitwise those of ``total_energy``. A run whose
    energy stops being finite raises ``ValueError`` naming the first step
    whose energy is not finite, once that step's batch is evaluated.
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
    block = _PairBlock(model, positions, depth=_BATCH)
    energies = np.empty(steps + 1)
    kinetic = np.empty(_BATCH)
    block.start(dt_used)
    kinetic[0] = np.dot(velocities, velocities)
    for n in range(1, steps + 1):
        slot = n % _BATCH
        if slot == 0:
            _record_energies(block, kinetic, energies, n - _BATCH)
        block.verlet(velocities, dt_used, slot)
        kinetic[slot] = np.dot(velocities, velocities)
    _record_energies(block, kinetic, energies, steps - steps % _BATCH)
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
