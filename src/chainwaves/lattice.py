"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with velocity Verlet under free boundaries: pair terms whose
partner index leaves the chain are omitted, so total momentum is conserved
exactly. ``run_transport`` is the one entry point, and one kernel makes its
steps. The stretches u_{j+m} - u_j of all M ranges sit in one zero-padded
(M, J) block; force laws whose coefficients carry the factor dt/2 turn it
into the half-kick of every bond, and the half-kick of each particle is the
column sum of that block minus each row shifted by its range. Each step
keeps its stretch block in one slot of a 16-deep stack and its kinetic
energy; the pair potentials of 16 steps come from the power sums sum r^2,
sum r^3 (and sum r^4) of each row of the stack. Each row is summed alone, so
the energies of a transport run are bitwise those of a depth-1 kernel run,
which sums the potentials of each step alone. A solved wave provides initial
data through the exact-solution form u_j(t) = eps U(eps j - eps c t), and
transport quality is measured on an interior window against the translated
velocity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import WindowOverflowError
from .grid import apply_symbol, sample, sup_norm
from .model import ChainModel, _exp_tail
from .solver import WaveSolution

__all__ = ["wave_initial_data", "TransportReport", "run_transport", "energy_drift_rate"]

_DT_GUARD = 0.1
_SUPPORT_THRESHOLD = 1e-6
_BUFFER_FACTOR = 4
_BATCH = 16  # Verlet steps whose pair potentials one power-sum pass covers


class _Verlet:
    """Velocity Verlet on one chain, in place on its positions and velocities.

    Slot k of the (depth, M, J) stretch stack is one (M, J) block whose row
    m - 1 holds u_{j+m} - u_j for j < J - m and zeros beyond; the zero
    padding is exact, since every force law and potential vanishes at
    r = 0. A force evaluation into slot k is a list of (ufunc, a, b, out)
    calls on views bound once: the stretches, the force laws by Horner's
    rule with dt/2 folded into their coefficients, which gives the force
    block the half-kick of every bond, and ``kick``, the half-kick of every
    particle. Pair potentials come from the power sums of up to ``depth``
    slots at once.
    """

    def __init__(
        self, model: ChainModel, positions, velocities, dt: float, depth: int = 1
    ) -> None:
        size = len(positions)
        ranges = range(1, model.neighbor_range + 1)
        self.positions, self.velocities, self.dt = positions, velocities, dt
        self.stretches = np.zeros((depth, len(ranges), size))
        self.squares = np.empty_like(self.stretches)
        # one zero ahead of the force block makes row 0 shifted by 1 a slice:
        # an M = 1 kick is one subtraction
        padded = np.zeros(1 + len(ranges) * size)
        self.force = force = padded[1:].reshape(len(ranges), size)
        self.kick, self.drift = np.empty(size), np.empty(size)
        force_columns, potential, scales = model.law_columns
        self._potential = [column[:, 0] for column in potential]
        self._tail = None if scales is None else scales[:, 0]
        # same-shape operands multiply about twice as fast as (M, 1) columns
        coefficients = [np.repeat(0.5 * dt * c, size, axis=1) for c in force_columns[::-1]]
        if scales is not None:
            tail_scales = np.repeat(0.5 * dt * scales, size, axis=1)
        # the half-kick on j from its bond to j + m is force row m - 1 at j,
        # and its reaction on j + m the same row shifted by m
        out = self.kick
        if len(ranges) == 1:
            kick = [(np.subtract, force[0], padded[:size], out)]
        else:
            kick = [(np.add, force[0], force[1], out)] + [(np.add, out, row, out) for row in force[2:]]
            kick += [(np.subtract, out[m:], force[m - 1, : size - m], out[m:]) for m in ranges]
        self._forces = []
        for stretch in self.stretches:
            rows = [stretch[m - 1, : size - m] for m in ranges]
            program = [(np.subtract, positions[m:], positions[:-m], rows[m - 1]) for m in ranges]
            program.append((np.multiply, stretch, coefficients[0], force))
            for column in coefficients[1:]:
                program += [(np.add, force, column, force), (np.multiply, force, stretch, force)]
            if scales is not None:
                program.append((_add_exp_tail, stretch, tail_scales, force))
            self._forces.append(program + kick)

    def forces(self, slot: int = 0):
        """Half-kick at the positions (the ``kick`` buffer), loading their
        stretches to ``slot``."""
        for ufunc, first, second, out in self._forces[slot]:
            ufunc(first, second, out)
        return self.kick

    def potentials(self, count: int) -> list:
        """Total pair potential of each of the first ``count`` slots.

        Row m of a slot contributes alpha_m/2 sum r^2 + beta_m/3 sum r^3
        (+ delta_m/4 sum r^4 for the cubic family, + s_m times the sum of
        the exp tail for the toda remainder). Each sum is over one row in a
        fixed order, so a slot's potential does not depend on ``count``.
        """
        stretch = self.stretches[:count]
        square = np.multiply(stretch, stretch, out=self.squares[:count])
        factors = (stretch, square)[: len(self._potential) - 1]
        sums = [np.add.reduce(square, axis=2)] + [np.einsum("kmj,kmj->km", square, f) for f in factors]
        total = sums[0] * self._potential[0]
        for power, coefficient in zip(sums[1:], self._potential[1:]):
            total += power * coefficient
        if self._tail is not None:
            total += np.add.reduce(_exp_tail(stretch, 4), axis=2) * self._tail
        return np.add.reduce(total, axis=1).tolist()

    def run(self, steps: int, energies=None) -> None:
        """``steps`` velocity Verlet steps in place, kick-drift-kick, at one
        force evaluation per step plus one at the start. With ``energies``
        (length steps + 1) also the energy of the start and of every step,
        the pair potentials summed per ``depth`` steps; raises
        ``ValueError`` at the first step after step 0 whose energy is not
        finite, once its batch is summed."""
        depth = len(self.stretches)
        positions, velocities, kick, drift = self.positions, self.velocities, self.kick, self.drift
        add, multiply, dot, forces, dt = np.add, np.multiply, np.dot, self.forces, self.dt
        kinetic = np.empty(depth)
        forces(0)
        kinetic[0] = dot(velocities, velocities)
        for n in range(1, steps + 1):
            slot = n % depth
            if slot == 0 and energies is not None:
                self._record(kinetic, energies, n - depth)
            add(velocities, kick, velocities)
            multiply(velocities, dt, drift)
            add(positions, drift, positions)
            forces(slot)
            add(velocities, kick, velocities)
            kinetic[slot] = dot(velocities, velocities)
        if energies is not None:
            self._record(kinetic, energies, steps - steps % depth)

    def _record(self, kinetic, energies, first: int) -> None:
        """Energies of steps first, first + 1, ... from the stack's slots and
        the kinetic terms, as many as the stack holds or the run has left."""
        count = min(len(kinetic), len(energies) - first)
        energies[first : first + count] = 0.5 * kinetic[:count] + self.potentials(count)
        for n in range(max(first, 1), first + count):
            if not math.isfinite(energies[n]):
                raise ValueError(
                    f"state entries must be finite; the energy after step {n} "
                    f"is {energies[n]}"
                )


def _add_exp_tail(stretch, scales, force) -> None:
    """Add the toda remainder's exp tail, times ``scales``, to ``force``."""
    force += _exp_tail(stretch, 3) * scales


def _dt_guard(model: ChainModel) -> float:
    """The Verlet stability guard 0.1/c0 on the time step."""
    return _DT_GUARD / math.sqrt(model.sound_speed_sq)


def _check_dt(model: ChainModel, dt: float) -> None:
    """Reject dt outside (0, guard], admitting 1e-12 relative slack above the guard."""
    guard = _dt_guard(model)
    if not 0 < dt <= guard * (1.0 + 1e-12):
        raise ValueError(f"dt must be in (0, {guard:g}], got {dt}")


def wave_initial_data(
    solution: WaveSolution, num_particles: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Positions and velocities of a chain sampling the wave centered at the
    chain midpoint.

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
    return positions, velocities


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
    integer, so round-off neither adds a step nor takes dt past the guard
    of ``_check_dt``. The transport error is the sup over the interior
    window, 4M sites in from each end, of the velocity mismatch against the
    translated profile, normalized by the peak initial speed. Energy drift
    is the secular trend of the sampled energies (least-squares slope times
    duration, relative to the initial energy), which isolates the symplectic
    property from the bounded oscillation of the shadow energy; the peak
    deviation is reported alongside.

    The run is the lattice kernel over all steps, in place on the initial
    positions and velocities: each step evaluates the forces once, at its
    new positions, giving the half-kick it ends with and the next step
    starts from, and stores its stretches and kinetic energy. The pair
    potentials of every 16 steps, and of the steps left at the end, come
    from the power sums of the stacked stretches; the recorded energies are
    bitwise those of a depth-1 kernel run, which sums the potentials of each
    step alone.
    A run whose energy stops being finite raises ``ValueError`` naming the
    first step whose energy is not finite, once that step's batch is summed.
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
    positions, velocities = wave_initial_data(solution, num_particles)
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
    momentum_start = float(np.sum(velocities))
    energies = np.empty(steps + 1)
    _Verlet(model, positions, velocities, dt_used, depth=_BATCH).run(steps, energies)
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * sample(solution.grid, solution.w.values, phases)
    interior = slice(buffer, num_particles - buffer)
    scale = eps**2 * speed * peak
    error = float(np.max(np.abs(velocities[interior] - predicted[interior]))) / scale
    momentum_drift = (
        abs(float(np.sum(velocities)) - momentum_start) / steps if steps else 0.0
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


def energy_drift_rate(energies, dt: float) -> float:
    """Secular energy drift over a run: |fit slope| * duration / |E(0)|.

    Below about 1e-14 it is the rounding of the trajectory, not a trend."""
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
