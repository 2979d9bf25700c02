"""Time integration of the physical chain and rigid-transport validation.

Newton's equations for the chain read

    u_j'' = sum_m force_m(u_{j+m} - u_j) - force_m(u_j - u_{j-m}),

integrated here with Stoermer-Verlet in drift-kick form under free
boundaries: pair terms whose partner index leaves the chain are omitted, so
total momentum is conserved exactly. The state is the positions and the
half-step momenta p = dt v; a step drifts u += p_{n-1/2} and kicks
p_{n+1/2} = p_{n-1/2} + dt^2 a(u_n), and step n moves at
(p_{n-1/2} + p_{n+1/2}) / (2 dt), the velocity of velocity Verlet.
``run_transport`` is the one entry point, and one kernel makes its steps.
The stretches u_{j+m} - u_j of all M ranges sit in one zero-padded (M, J)
block; force laws whose coefficients carry dt^2 turn it into the kick of
every bond, and the kick of each particle is the column sum of that block
minus each row shifted by its range. The energies of 16 steps come from row
dot products over the stacked stretch blocks and momenta. Each row is summed
alone, so the energies of a transport run are bitwise those of a depth-1
kernel run. A solved wave provides initial data through the exact-solution
form u_j(t) = eps U(eps j - eps c t), and transport quality is measured on
an interior window against the translated velocity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import WindowOverflowError
from .grid import apply_symbol, sample, sup_norm
from .model import ChainModel, _exp_tail
from .solver import WaveSolution, _line_slope

__all__ = [
    "wave_initial_data", "TransportReport", "check_chain", "run_transport", "energy_drift_rate",
]

_DT_GUARD = 0.1
_SUPPORT_THRESHOLD = 1e-6
_BUFFER_FACTOR = 4
_BATCH = 16  # Verlet steps whose energies one row-dot pass covers


class _Verlet:
    """Drift-kick Stoermer-Verlet on one chain, in place on its positions and
    velocities.

    Slot k of the (depth, M, J) stretch stack is one (M, J) block whose row
    m - 1 holds u_{j+m} - u_j for j < J - m and zeros beyond; the zero
    padding is exact, since every force law and potential vanishes at
    r = 0. Row k of the (depth + 1, J) momentum stack holds dt times the
    half-step velocity a step with stretch slot k starts from, and row
    k + 1 the one it ends with. The step of slot k is a list of
    (ufunc, a, b, out) calls on views bound once: the drift by row k, the
    stretches, the force laws by Horner's rule with dt^2 folded into their
    coefficients, which gives the force block the kick of every bond, the
    kick of every particle into row k + 1, and row k added to it. Energies
    come from row dot products over up to ``depth`` slots at once.
    """

    def __init__(
        self, model: ChainModel, positions, velocities, dt: float, depth: int = 1
    ) -> None:
        size = len(positions)
        ranges = range(1, model.neighbor_range + 1)
        block, cells = (len(ranges), size), len(ranges) * size
        self.positions, self.velocities, self.dt = positions, velocities, dt
        # slot k of a stack is row k of an aligned array, so every block a
        # step works on starts on a 64-byte boundary while a batch squares
        # its stretches in one contiguous pass
        self._stretch_rows, self._square_rows = _aligned_rows(depth, cells), _aligned_rows(depth, cells)
        self.stretches = self._stretch_rows[:, :cells].reshape(depth, *block)
        self._momentum_rows = _aligned_rows(depth + 1, size)
        self.momenta = self._momentum_rows[:, :size]
        # one zero ahead of the force block makes row 0 shifted by 1 a slice:
        # an M = 1 kick is one subtraction
        padded = _aligned_rows(1, 8 + cells)[0, 7 : 8 + cells]
        self.force = force = padded[1:].reshape(block)
        force_columns, potential, scales = model.law_columns
        self._potential = [column[:, 0] for column in potential]
        self._tail = None if scales is None else scales[:, 0]
        # same-shape operands multiply about twice as fast as (M, 1) columns
        columns = [dt * dt * c for c in force_columns[::-1]]
        if scales is not None:
            columns.append(dt * dt * scales)
        coefficients = _aligned_rows(len(columns), cells)[:, :cells].reshape(-1, *block)
        coefficients[...] = np.array(columns)
        if scales is not None:
            *coefficients, tail_scales = coefficients
        self._steps = []
        for slot, stretch in enumerate(self.stretches):
            rows = [stretch[m - 1, : size - m] for m in ranges]
            program = [(np.subtract, positions[m:], positions[:-m], rows[m - 1]) for m in ranges]
            program.append((np.multiply, stretch, coefficients[0], force))
            for column in coefficients[1:]:
                program += [(np.add, force, column, force), (np.multiply, force, stretch, force)]
            if scales is not None:
                program.append((_add_exp_tail, stretch, tail_scales, force))
            # the kick on j from its bond to j + m is force row m - 1 at j,
            # and its reaction on j + m the same row shifted by m
            start, out = self.momenta[slot], self.momenta[slot + 1]
            if len(ranges) == 1:
                program.append((np.subtract, force[0], padded[:size], out))
            else:
                program += [(np.add, force[0], force[1], out)] + [(np.add, out, row, out) for row in force[2:]]
                program += [(np.subtract, out[m:], force[m - 1, : size - m], out[m:]) for m in ranges]
            drift, momentum = (np.add, positions, start, positions), (np.add, out, start, out)
            self._steps.append([drift, *program, momentum])

    def forces(self):
        """Kick dt^2 a at the positions into momentum row 1, which is
        returned, loading their stretches to slot 0: the step of slot 0
        without its drift and momentum add."""
        for ufunc, first, second, out in self._steps[0][1:-1]:
            ufunc(first, second, out)
        return self.momenta[1]

    def potentials(self, count: int) -> list:
        """Total pair potential of each of the first ``count`` slots.

        Row m of a slot contributes alpha_m/2 sum r^2 + beta_m/3 sum r^3
        (+ delta_m/4 sum r^4 for the cubic family, + s_m times the sum of
        the exp tail for the toda remainder). Each sum is over one row in a
        fixed order, so a slot's potential does not depend on ``count``.
        """
        stretch_rows, square_rows = self._stretch_rows[:count], self._square_rows[:count]
        np.multiply(stretch_rows, stretch_rows, out=square_rows)
        stretch = self.stretches[:count]
        square = square_rows[:, : stretch[0].size].reshape(stretch.shape)
        pairs = ((stretch, stretch), (square, stretch), (square, square))
        sums = [_row_dots(*pair) for pair in pairs[: len(self._potential)]]
        total = sums[0] * self._potential[0]
        for power, coefficient in zip(sums[1:], self._potential[1:]):
            total += power * coefficient
        if self._tail is not None:
            total += np.add.reduce(_exp_tail(stretch, 4), axis=2) * self._tail
        return np.add.reduce(total, axis=1).tolist()

    def run(self, steps: int, energies) -> None:
        """``steps`` Verlet steps in place, drift-kick, at one force
        evaluation per step plus one at the start, which turns the
        velocities into the momenta of the half steps either side of step 0.
        The velocities of the last step are written back at the end, and
        the energy of the start and of every step into ``energies`` (length
        steps + 1), summed per ``depth`` steps; raises ``ValueError`` at the
        first step after step 0 whose energy is not finite, once its batch
        is summed."""
        depth, momenta, programs = len(self.stretches), self.momenta, self._steps
        half = np.multiply(self.forces(), 0.5, out=self._square_rows[0, : len(self.velocities)])
        np.multiply(self.velocities, self.dt, out=momenta[0])
        np.add(momenta[0], half, out=momenta[1])
        np.subtract(momenta[0], half, out=momenta[0])
        for n in range(1, steps + 1):
            slot = n % depth
            if slot == 0:
                self._record(energies, n - depth)
                momenta[0] = momenta[depth]
            for ufunc, first, second, out in programs[slot]:
                ufunc(first, second, out)
        self._record(energies, steps - steps % depth)
        if steps:
            slot = steps % depth
            np.add(momenta[slot], momenta[slot + 1], out=self.velocities)
            np.divide(self.velocities, 2.0 * self.dt, out=self.velocities)

    def _record(self, energies, first: int) -> None:
        """Energies of steps first, first + 1, ... from the stacks' slots, as
        many as the stretch stack holds or the run has left. Step n moves at
        (p_{n-1/2} + p_{n+1/2}) / (2 dt); the sums of those momentum rows go
        to the head of the square rows before the potentials overwrite them."""
        count = min(len(self.stretches), len(energies) - first)
        rows = self._momentum_rows
        sums = self._square_rows.reshape(-1)[: rows[:count].size].reshape(count, -1)
        np.add(rows[:count], rows[1 : count + 1], out=sums)
        kinetic = _row_dots(sums, sums) / (8.0 * self.dt * self.dt)
        energies[first : first + count] = kinetic + self.potentials(count)
        for n in range(max(first, 1), first + count):
            if not math.isfinite(energies[n]):
                raise ValueError(
                    f"state entries must be finite; the energy after step {n} "
                    f"is {energies[n]}"
                )


def _aligned_rows(count: int, size: int):
    """A zero (count, size rounded up to 8) array whose rows start on
    64-byte boundaries: elementwise ufuncs run about a fifth faster on such
    blocks than on blocks aligned to 8 or 16 bytes only."""
    stride = -(-size // 8) * 8
    buffer = np.zeros(count * stride + 8)
    start = (-buffer.ctypes.data // 8) % 8
    return buffer[start : start + count * stride].reshape(count, stride)


def _row_dots(first, second):
    """sum_j first[..., j] second[..., j] of each row, as one BLAS dot per
    row: a row's sum does not depend on the rows stacked with it."""
    return np.matmul(first[..., None, :], second[..., :, None])[..., 0, 0]


def _add_exp_tail(stretch, scales, force) -> None:
    """Add the toda remainder's exp tail, times ``scales``, to ``force``."""
    force += _exp_tail(stretch, 3) * scales


def _dt_guard(model: ChainModel) -> float:
    """The Verlet stability guard 0.1/c0 on the time step."""
    return _DT_GUARD / math.sqrt(model.sound_speed_sq)


def check_chain(model: ChainModel, particles: int, dt: float) -> None:
    """Reject a chain of J <= 8M particles, whose transport window, 4M sites
    in from each end, is empty, and a time step outside (0, 0.1/c0]. The
    ``ValueError`` message starts with the name of the argument at fault."""
    _check_particles(model, particles)
    _check_dt(model, dt)


def _check_particles(model: ChainModel, particles: int) -> None:
    limit = 2 * _BUFFER_FACTOR * model.neighbor_range
    if particles <= limit:
        raise ValueError(f"particles must exceed 8M = {limit}, got {particles!r}")


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
    interpolant of w at the points, from one two-row ``sample`` call
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
    periodic_at_points, values = sample(grid, np.stack([periodic, w.values]), pts)
    ramp = float(np.mean(w.values)) * (pts + grid.half_length)
    return ramp + periodic_at_points - periodic[0], values


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
    of ``check_chain``. The transport error is the sup over the interior
    window, 4M sites in from each end, of the velocity mismatch against the
    translated profile, normalized by the peak initial speed. Energy drift
    is the secular trend of the sampled energies (least-squares slope times
    duration, relative to the initial energy), which isolates the symplectic
    property from the bounded oscillation of the shadow energy; the peak
    deviation is reported alongside.

    The run is the drift-kick lattice kernel over all steps, in place on
    the initial positions and velocities: one force evaluation at the start
    turns the velocities into the momenta of the half steps either side of
    step 0, and each step drifts by its half-step momentum, evaluates the
    forces once at its new positions and kicks the next half-step momentum
    into the following row of the momentum stack, keeping its stretches in
    the stretch stack. The energies of every 16 steps, and of the steps
    left at the end, come from row dot products over both stacks; the
    recorded energies are bitwise those of a depth-1 kernel run, which sums
    the energies of each step alone.
    A run whose energy stops being finite raises ``ValueError`` naming the
    first step whose energy is not finite, once that step's batch is summed.
    """
    model = solution.model
    eps = solution.epsilon
    speed = solution.wave_speed
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be nonnegative and finite, got {horizon}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    _check_particles(model, num_particles)
    buffer = _BUFFER_FACTOR * model.neighbor_range
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
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * sample(solution.grid, solution.w.values, phases)
    momentum_start = float(np.sum(velocities))
    energies = np.empty(steps + 1)
    _Verlet(model, positions, velocities, dt_used, depth=_BATCH).run(steps, energies)
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
    drift = abs(_line_slope(times, energies)) * float(times[-1])
    reference = abs(float(energies[0]))
    return drift / reference if reference else drift


def _peak_deviation(energies: NDArray[np.float64]) -> float:
    reference = abs(float(energies[0]))
    peak = float(np.max(np.abs(energies - energies[0])))
    return peak / reference if reference else peak
