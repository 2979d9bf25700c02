"""Chain dynamics: forces, integrator, conservation, wave transport."""

import dataclasses
import math

import numpy as np
import pytest

import chainwaves as cw
from chainwaves import lattice
from chainwaves.lattice import _initial_profiles, energy_drift_rate


@pytest.fixture(scope="module")
def wave(model1, grid1):
    return cw.solve_wave(model1, grid1, cw.SolveConfig(epsilon=0.2))


def _solve(model, eps=0.2):
    grid = cw.make_grid(cw.default_half_length(model), 1024)
    return cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))


def dispersion_sq(model, kappa):
    # frequency of the linearized chain: omega^2 = sum_m 4 alpha_m sin^2(m kappa / 2)
    return sum(
        4.0 * a * math.sin(m * kappa / 2.0) ** 2 for m, a in enumerate(model.alpha, 1)
    )


def _acceleration(model, positions):
    # with dt = 1 the kick dt^2 * acceleration is the acceleration
    return lattice._Verlet(model, positions, np.zeros_like(positions), 1.0).forces()


def _energy(model, positions, velocities):
    # kinetic plus pair potential, as the kernel records it for step 0: the
    # velocities rebuilt from the momenta of the half steps either side
    energies = np.empty(1)
    lattice._Verlet(model, positions, velocities, 1.0).run(0, energies)
    return float(energies[0])


def test_acceleration_zero_state(model1):
    assert np.all(_acceleration(model1, np.zeros(16)) == 0.0)


def test_acceleration_uniform_stretch_interior(model2):
    J = 24
    stretch = 0.05
    accel = _acceleration(model2, stretch * np.arange(J))
    M = model2.neighbor_range
    np.testing.assert_allclose(accel[M:-M], 0.0, atol=1e-14)
    assert abs(accel[0]) > 0  # free ends feel the missing partner


def test_acceleration_plane_wave_dispersion(model2):
    # at amplitude 1e-8 the nonlinear force terms sit below the bound
    J = 64
    kappa = 0.7
    amplitude = 1e-8
    positions = amplitude * np.cos(kappa * np.arange(J))
    accel = _acceleration(model2, positions)
    expected = -dispersion_sq(model2, kappa) * positions
    M = model2.neighbor_range
    np.testing.assert_allclose(accel[M:-M], expected[M:-M], atol=1e-15)


def _double_loop(model, positions, velocities, linear_only):
    # textbook reference: every in-range pair (j, j + m) once, force laws
    # and potentials written out, psi by its Taylor series
    size = len(positions)
    accel = [0.0] * size
    energy = sum(0.5 * v * v for v in velocities)
    for m in range(1, model.neighbor_range + 1):
        a, b = model.alpha[m - 1], model.beta[m - 1]
        p = model.psi.params[m - 1] if model.psi.kind != "none" else 0.0
        for j in range(size - m):
            r = float(positions[j + m] - positions[j])
            force, potential = a * r, a * r * r / 2
            if not linear_only:
                force += b * r * r
                potential += b * r * r * r / 3
                if model.psi.kind == "cubic":
                    force += p * r * r * r
                    potential += p * r * r * r * r / 4
                elif model.psi.kind == "toda-remainder":
                    force += p * sum(r**n / math.factorial(n) for n in range(3, 40))
                    potential += p * sum(r**n / math.factorial(n) for n in range(4, 40))
            accel[j] += force
            accel[j + m] -= force
            energy += potential
    return np.array(accel), energy


@pytest.mark.parametrize("size", ["minimum", 40])
@pytest.mark.parametrize(
    "model",
    [
        cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 0.25), cw.PsiFamily.cubic((0.1, 0.2, 0.3))),
        cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((1.0,))),
        cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 0.25), cw.PsiFamily.toda_remainder((1.0, 0.5, 0.2))),
    ],
    ids=["M3-cubic", "M1-toda-remainder", "M3-toda-remainder"],
)
def test_pair_block_matches_double_loop(model, size):
    # the minimum chain 2M + 2 has the largest share of zero-padded stretches
    if size == "minimum":
        size = 2 * model.neighbor_range + 2
    rng = np.random.default_rng(size + 10 * model.neighbor_range)
    positions = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.5, 0.5, size - 1))])
    velocities = rng.uniform(-0.5, 0.5, size)
    expected, energy = _double_loop(model, positions, velocities, False)
    accel = _acceleration(model, positions)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(accel - expected)) <= 1e-13 * scale
    assert abs(np.sum(accel)) <= 1e-15 * np.sum(np.abs(accel))
    assert abs(_energy(model, positions, velocities) - energy) <= 1e-13 * abs(energy)


@pytest.mark.parametrize(
    "psi",
    [cw.PsiFamily(), cw.PsiFamily.cubic((0.1, 0.3)), cw.PsiFamily.toda_remainder((0.5, 0.2))],
    ids=lambda psi: psi.kind,
)
def test_pair_laws_rows_equal_force_laws(psi):
    # one definition of each law: a row of the integrator's force block is
    # bitwise the per-m call, with dt = 1 making the kick factor dt^2 1
    model = cw.ChainModel((1.0, 0.5), (1.0, 0.25), psi)
    positions = np.cumsum(np.random.default_rng(7).uniform(-1.0, 1.0, 57))
    kernel = lattice._Verlet(model, positions, np.zeros(57), 1.0)
    kernel.forces()
    for m in (1, 2):
        stretch = positions[m:] - positions[:-m]
        assert np.array_equal(kernel.force[m - 1, : 57 - m], model.force(m, stretch))


def test_step_zero_state_and_guard(model1, wave):
    positions, velocities = np.zeros(16), np.zeros(16)
    lattice._Verlet(model1, positions, velocities, 0.05).run(1, np.empty(2))
    assert np.all(positions == 0.0) and np.all(velocities == 0.0)
    # two steps of 0.2, above the guard 0.1/c0
    with pytest.raises(ValueError, match=r"dt must be in \(0, 0.1\]"):
        cw.run_transport(wave, 80, 0.4, 0.2)


def test_step_harmonic_frequency(model1):
    # free-boundary normal mode; velocity Verlet frequency error is O(dt^2)
    J = 32
    mode = 3
    kappa = math.pi * mode / J
    omega = math.sqrt(dispersion_sq(model1, kappa))
    shape = np.cos(kappa * (np.arange(J) + 0.5))
    dt = 0.02
    positions = 1e-8 * shape
    kernel = lattice._Verlet(model1, positions, np.zeros(J), dt)
    previous = float(shape @ positions)
    crossing = None
    for n in range(1, 20000):
        kernel.run(1, np.empty(2))
        current = float(shape @ positions)
        if previous > 0 >= current:
            crossing = n * dt - dt * current / (current - previous)
            break
        previous = current
    assert crossing is not None
    measured = (math.pi / 2.0) / crossing
    assert abs(measured - omega) / omega <= omega**2 * dt**2 / 4.0


def test_total_energy_single_bond(model1):
    positions = np.array([0.0, 0.3, 0.3, 0.3])
    expected = 0.5 * 0.3**2 + 0.3**3 / 3.0
    assert _energy(model1, positions, np.zeros(4)) == pytest.approx(expected, rel=1e-14)
    assert _energy(model1, np.zeros(4), np.zeros(4)) == 0.0


def test_energy_drift_standing_mode(model1):
    # bounded low-mode motion, guard step, ten thousand steps
    J = 80
    kappa = math.pi * 2 / J
    positions = 0.01 * np.cos(kappa * (np.arange(J) + 0.5))
    guard = 0.1 / math.sqrt(model1.sound_speed_sq)
    energies = np.empty(10001)
    lattice._Verlet(model1, positions, np.zeros(J), guard).run(10000, energies)
    assert energy_drift_rate(energies[::10], 10 * guard) <= 1e-6


def test_wave_initial_data_shape(wave):
    J = 80
    _, velocities = cw.wave_initial_data(wave, J)
    assert np.all(velocities <= 1e-15)
    assert np.sum(np.diff(np.signbit(-velocities + 1e-300))) <= 2
    eps, speed = wave.epsilon, wave.wave_speed
    expected_peak = eps**2 * speed * cw.sup_norm(wave.w)
    assert float(np.max(np.abs(velocities))) == pytest.approx(expected_peak, abs=1e-9)
    # midpoint particle sits at the wave crest
    assert int(np.argmax(-velocities)) == J // 2


@pytest.mark.parametrize("num_points", [1024, 4096])
@pytest.mark.parametrize("eps", [0.2, 0.05])
@pytest.mark.parametrize("name", ["model1", "model2"])
def test_position_profile_matches_closed_form(request, name, eps, num_points):
    # antiderivative of the KdV profile from -L, evaluated off the grid
    model = request.getfixturevalue(name)
    grid = cw.make_grid(cw.default_half_length(model), num_points)
    d1, d2 = model.d1, model.d2
    J = int(2 * grid.half_length / eps)
    x = eps * (np.arange(J) - J / 2)
    root = math.sqrt(d1)
    exact = (3 * root / d2) * (np.tanh(root * x / 2) + math.tanh(root * grid.half_length / 2))
    positions, _ = _initial_profiles(cw.kdv_profile(model, grid), x)
    assert np.max(np.abs(positions - exact)) <= 1e-13 * np.max(np.abs(exact))


@pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])
def test_transport_rejects_bad_dt(wave, dt):
    with pytest.raises(ValueError, match="dt"):
        cw.run_transport(wave, 80, 0.05, dt)


def test_check_chain_shares_the_particle_rule(wave, model1):
    # J = 8M has no transport interior, for the config check and the run alike
    lattice.check_chain(model1, 9, 0.1)
    with pytest.raises(ValueError, match="particles must exceed 8M = 8"):
        lattice.check_chain(model1, 8, 0.05)
    with pytest.raises(ValueError, match="particles must exceed 8M = 8"):
        cw.run_transport(wave, 8, 0.05, 0.02)
    with pytest.raises(ValueError, match=r"dt must be in \(0, 0.1\]"):
        lattice.check_chain(model1, 9, 0.11)


@pytest.mark.parametrize("horizon", [-0.5, math.nan, math.inf])
def test_transport_rejects_bad_horizon(wave, horizon):
    with pytest.raises(ValueError, match="horizon"):
        cw.run_transport(wave, 80, horizon, 0.02)


def test_wave_initial_data_rejects(wave, model1):
    with pytest.raises(ValueError):
        cw.wave_initial_data(wave, 3)
    with pytest.raises(cw.WindowOverflowError):
        cw.wave_initial_data(wave, 10_000)


def test_transport_zero_horizon(wave):
    assert cw.run_transport(wave, 80, 0.0, 0.02).transport_error <= 1e-10


def test_transport_error_defaults(wave, model1):
    c0 = math.sqrt(model1.sound_speed_sq)
    horizon = 5.0 / wave.wave_speed  # five sites of travel
    report = cw.run_transport(wave, 80, horizon, 0.02 / c0)
    assert report.transport_error <= 0.02
    assert report.energy_drift <= 1e-6
    assert report.momentum_drift_per_step <= 1e-12
    # 0.07 / 0.01 rounds one ulp above 7: still seven steps of 0.01
    exact_multiple = cw.run_transport(wave, 80, 0.07, 0.01)
    assert exact_multiple.steps == 7
    assert exact_multiple.dt == pytest.approx(0.01, rel=1e-12)
    # halving dt cuts the dt-limited error about fourfold
    finer = cw.run_transport(wave, 80, horizon, 0.01 / c0)
    assert report.transport_error / finer.transport_error == pytest.approx(4.0, rel=0.3)


def test_transport_report_fields_are_builtin(wave):
    report = cw.run_transport(wave, 80, 1.0, 0.05)
    for field in dataclasses.fields(report):
        assert type(getattr(report, field.name)) in (int, float), field.name
    assert "np." not in repr(report)
    assert type(energy_drift_rate(np.array([1.0, 1.1, 1.3]), 0.1)) is float


def test_transport_window_overflow(wave):
    with pytest.raises(cw.WindowOverflowError):
        cw.run_transport(wave, 80, 200.0, 0.02)


def test_momentum_conserved_through_steps(wave):
    positions, velocities = cw.wave_initial_data(wave, 80)
    start = float(np.sum(velocities))
    lattice._Verlet(wave.model, positions, velocities, 0.05).run(100, np.empty(101))
    assert abs(float(np.sum(velocities)) - start) / 100 <= 1e-12


def _reference_report(solution, num_particles, horizon, dt, steps):
    # run_transport rebuilt from a depth-1 kernel run, which sums the pair
    # potentials of each step alone
    positions, velocities = cw.wave_initial_data(solution, num_particles)
    momentum_start = float(np.sum(velocities))
    energies = np.empty(steps + 1)
    lattice._Verlet(solution.model, positions, velocities, dt).run(steps, energies)
    eps, speed = solution.epsilon, solution.wave_speed
    phases = eps * (np.arange(num_particles) - num_particles / 2.0) - eps * speed * horizon
    predicted = -(eps**2) * speed * cw.sample(solution.grid, solution.w.values, phases)
    buffer = 4 * solution.model.neighbor_range
    interior = slice(buffer, num_particles - buffer)
    scale = eps**2 * speed * cw.sup_norm(solution.w)
    return cw.TransportReport(
        num_particles=num_particles,
        dt=dt,
        horizon=horizon,
        steps=steps,
        transport_error=float(
            np.max(np.abs(velocities[interior] - predicted[interior]))
        ) / scale,
        energy_drift=energy_drift_rate(energies, dt),
        peak_energy_deviation=float(np.max(np.abs(energies - energies[0]))) / abs(energies[0]),
        momentum_drift_per_step=abs(float(np.sum(velocities)) - momentum_start) / steps,
    )


@pytest.mark.parametrize(
    "model, num_particles, horizon, dt, steps",
    [
        (cw.ChainModel((1.0, 1.0), (1.0, 1.0), cw.PsiFamily.cubic((0.1, 0.1))), 300, 0.8, 0.04, 20),
        (cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((1.0,))), 80, 1.0, 0.05, 20),
        (
            cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 1 / 3), cw.PsiFamily.toda_remainder((2.0, 1.0, 0.5))),
            400,
            1.0,
            0.02,
            50,
        ),
    ],
    ids=["M2-cubic", "M1-toda-remainder", "M3-toda-remainder"],
)
def test_transport_matches_step_reference(model, num_particles, horizon, dt, steps):
    # the 16-deep run inside run_transport is bitwise the depth-1 kernel run;
    # each run crosses at least one boundary of its 16-step potential batches
    solution = _solve(model)
    report = cw.run_transport(solution, num_particles, horizon, dt)
    assert report.steps == steps
    expected = _reference_report(solution, num_particles, horizon, report.dt, report.steps)
    assert report == expected
    assert report.transport_error <= 0.02 and report.energy_drift <= 1e-6


def _count_calls(kernel, calls):
    # wrap every call of the kernel's step programs, which its force
    # evaluations share, so that it appends its ufunc's name to calls
    def counting(ufunc):
        def call(first, second, out):
            calls.append(ufunc.__name__)
            ufunc(first, second, out)

        return call

    for program in kernel._steps:
        program[:] = [(counting(ufunc), *operands) for ufunc, *operands in program]


def test_transport_evaluates_pair_terms_once_per_step(model2, monkeypatch):
    # cost guard without timing: the forces of all ranges in one block
    # evaluation for the initial state (8 array calls on M2) and one per step
    # (10 calls with the drift and the momentum add, 2 of them the Horner
    # multiplies), and the pair potentials from the 16-deep stretch stack,
    # one power-sum pass per 16 states; 47 steps end on a full batch of 16
    solution = _solve(model2)
    calls, batches = [], []
    run, potentials = lattice._Verlet.run, lattice._Verlet.potentials

    def counting_run(self, steps, energies):
        _count_calls(self, calls)
        return run(self, steps, energies)

    def counting_potentials(self, count):
        assert self.stretches.shape == (16, 2, 300)
        assert self.momenta.shape == (17, 300)
        batches.append(count)
        return potentials(self, count)

    monkeypatch.setattr(lattice._Verlet, "run", counting_run)
    monkeypatch.setattr(lattice._Verlet, "potentials", counting_potentials)
    for horizon, steps, expected in ((0.8, 20, [16, 5]), (1.88, 47, [16, 16, 16])):
        calls.clear()
        batches.clear()
        report = cw.run_transport(solution, 300, horizon, 0.04)
        assert report.steps == steps
        assert len(calls) == 8 + 10 * steps
        assert calls.count("multiply") == 2 * (steps + 1)
        assert batches == expected


def _random_chain(size, seed):
    rng = np.random.default_rng(seed)
    positions = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.5, 0.5, size - 1))])
    return positions, rng.uniform(-0.5, 0.5, size)


_FAMILIES = [
    cw.ChainModel((1.0,), (1.0,)),
    cw.ChainModel((1.0, 0.5), (1.0, 0.25), cw.PsiFamily.cubic((0.1, 0.3))),
    cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 0.25), cw.PsiFamily.toda_remainder((1.0, 0.5, 0.2))),
    cw.ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 0.25), cw.PsiFamily.cubic((0.1, 0.2, 0.3))),
    cw.ChainModel((1.0,), (1.0,), cw.PsiFamily.toda_remainder((1.0,))),
]
_FAMILY_IDS = ["M1-none", "M2-cubic", "M3-toda-remainder", "M3-cubic", "M1-toda-remainder"]


@pytest.mark.parametrize("model, per_step", zip(_FAMILIES, (7, 12, 14, 15, 8)), ids=_FAMILY_IDS)
def test_step_array_calls_are_pinned(model, per_step):
    # cost guard without timing: a step is the drift, the M stretches, the
    # Horner program (3 calls, 5 with the cubic term, one more for the toda
    # remainder's exp tail, which counts as one call), the kick (2M - 1
    # calls) and the momentum add; the start's force evaluation has no drift
    # and no momentum add
    positions, velocities = _random_chain(64, 5)
    kernel = lattice._Verlet(model, positions, velocities, 0.01, depth=16)
    calls = []
    _count_calls(kernel, calls)
    kernel.run(40, np.empty(41))
    assert len(calls) == per_step - 2 + 40 * per_step


@pytest.mark.parametrize("size", ["minimum", 57, 1428, 5000])
@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_power_sum_potential_matches_pair_potentials(model, size):
    # the potential from power sums of the stretches against the per-pair
    # law, summed exactly
    M = model.neighbor_range
    size = 2 * M + 2 if size == "minimum" else size
    positions, _ = _random_chain(size, size + M)
    terms = [model.potential(m, positions[m:] - positions[:-m]) for m in range(1, M + 1)]
    expected = math.fsum(np.concatenate(terms))
    assert abs(_energy(model, positions, np.zeros(size)) - expected) <= 1e-14 * abs(expected)


def _textbook_verlet(model, positions, velocities, dt, steps):
    # kick-drift-kick velocity Verlet as printed: the acceleration from a
    # loop over m of model.force, dt unfolded, and the energy of every state
    # from model.potential summed exactly
    M = model.neighbor_range

    def acceleration(x):
        a = np.zeros_like(x)
        for m in range(1, M + 1):
            force = model.force(m, x[m:] - x[:-m])
            a[:-m] += force
            a[m:] -= force
        return a

    def energy(x, v):
        terms = [0.5 * v * v] + [model.potential(m, x[m:] - x[:-m]) for m in range(1, M + 1)]
        return math.fsum(np.concatenate(terms))

    x, v = positions.copy(), velocities.copy()
    a = acceleration(x)
    energies = [energy(x, v)]
    for _ in range(steps):
        v = v + 0.5 * dt * a
        x = x + dt * v
        a = acceleration(x)
        v = v + 0.5 * dt * a
        energies.append(energy(x, v))
    return x, v, np.array(energies)


@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_kernel_matches_textbook_velocity_verlet(model):
    # the drift-kick kernel with dt^2 folded into its force laws is velocity
    # Verlet: 200 steps at half the guard step, twelve full 16-step energy
    # batches and a partial one, from stretches and velocities within +-0.1
    positions, velocities = (0.2 * state for state in _random_chain(300, 11))
    dt = 0.5 * lattice._dt_guard(model)
    x, v, expected = _textbook_verlet(model, positions, velocities, dt, 200)
    energies = np.empty(201)
    lattice._Verlet(model, positions, velocities, dt, depth=16).run(200, energies)
    assert np.max(np.abs(positions - x)) <= 1e-12 * np.max(np.abs(x))
    assert np.max(np.abs(velocities - v)) <= 1e-12 * np.max(np.abs(v))
    assert np.max(np.abs(energies - expected)) <= 1e-13 * abs(expected[0])


@pytest.mark.parametrize("dt", [0.05, 0.013])
@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_folded_half_kick_equals_scaled_acceleration(model, dt):
    # dt^2 folded into the force-law coefficients moves the kick by
    # round-off only
    positions, velocities = _random_chain(300, 3)
    expected = dt * dt * _acceleration(model, positions)
    kick = lattice._Verlet(model, positions, velocities, dt).forces()
    assert np.max(np.abs(kick - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("size", ["minimum", 37, 300, 1428, 5000])
@pytest.mark.parametrize("model", _FAMILIES, ids=_FAMILY_IDS)
def test_stacked_potentials_equal_single_state(model, size):
    # a state's pair potential is bitwise the same alone and in any slot of
    # a 16-state stack, full or partly filled: this keeps run_transport's
    # energies those of a depth-1 kernel run
    M = model.neighbor_range
    size = 2 * M + 2 if size == "minimum" else size
    states = [_random_chain(size, seed) for seed in range(16)]
    stack = lattice._Verlet(model, *states[0], 0.01, depth=16)
    alone = []
    for slot, state in enumerate(states):
        single = lattice._Verlet(model, *state, 0.01)
        single.forces()
        stack.stretches[slot] = single.stretches[0]
        alone.extend(single.potentials(1))
    assert stack.potentials(16) == alone
    assert stack.potentials(5) == alone[:5]


def test_transport_blow_up_raises(wave):
    # compressed past the barrier of r^2/2 + r^3/3 the chain collapses; the
    # run must stop with an error, not return a report of NaNs
    collapsing = dataclasses.replace(wave, w=-40.0 * wave.w)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            cw.run_transport(collapsing, 80, 20.0, 0.05)


@pytest.mark.parametrize("horizon", [20.0, 2.4], ids=["run-continues", "run-ends-in-batch"])
def test_transport_blow_up_mid_batch_names_reference_step(wave, horizon):
    # at dt 0.04 the -40 w collapse first has a non-finite energy after step
    # 57, slot 9 of the batch of steps 48-63: the run reports the step and
    # energy of the depth-1 kernel run, which stops at once, whether later
    # steps of that batch run (horizon 20) or the run ends inside it
    # (horizon 2.4, 60 steps)
    collapsing = dataclasses.replace(wave, w=-40.0 * wave.w)
    with np.errstate(over="ignore", invalid="ignore"):
        positions, velocities = cw.wave_initial_data(collapsing, 80)
        energies = np.empty(61)
        with pytest.raises(ValueError) as reference:
            lattice._Verlet(wave.model, positions, velocities, 0.04).run(60, energies)
        assert np.all(np.isfinite(energies[:57])) and not math.isfinite(energies[57])
        message = f"state entries must be finite; the energy after step 57 is {energies[57]}"
        assert str(reference.value) == message
        with pytest.raises(ValueError) as raised:
            cw.run_transport(collapsing, 80, horizon, 0.04)
    assert str(raised.value) == message


def _lattice_defect(solution) -> float:
    """Sup gap, over the sites 4M or more in from either end, between the
    chain's accelerations sum_m F_m(u_{j+m} - u_j) - F_m(u_j - u_{j-m}) at
    the positions of ``wave_initial_data`` and eps^3 c^2 w' at the same
    phases, relative to max |eps^3 c^2 w'|. A traveling wave u_j(t) =
    eps U(x_j - eps c t) with U' = w has exactly these accelerations, so the
    gap reads the profile's error without time stepping."""
    model, eps, grid = solution.model, solution.epsilon, solution.grid
    count = int(2.0 * grid.half_length / eps)
    positions, _ = cw.wave_initial_data(solution, count)
    accelerations = np.zeros(count)
    for m in range(1, model.neighbor_range + 1):
        forces = model.force(m, positions[m:] - positions[:-m])
        accelerations[:-m] += forces
        accelerations[m:] -= forces
    phases = eps * (np.arange(count) - count / 2.0)
    slope = cw.sample(grid, cw.derivative(solution.w, 1).values, phases)
    expected = eps**3 * solution.wave_speed_sq * slope
    interior = slice(4 * model.neighbor_range, count - 4 * model.neighbor_range)
    gap = np.max(np.abs(accelerations[interior] - expected[interior]))
    return float(gap / np.max(np.abs(expected)))


@pytest.mark.parametrize("num_points", [1024, 4096])
@pytest.mark.parametrize("eps", [0.4, 0.1])
@pytest.mark.parametrize("name", ["model1", "model2", "model2_cubic", "model3_toda", "toda"])
def test_solved_wave_meets_the_chain_equations(request, name, eps, num_points):
    # the worst reading is 1.4e-12 (M3-toda, N 4096, eps 0.1); a wave whose
    # eps^2 part is off by 0.1% reads 6.2e-9 (M3-toda, eps 0.1) to 6.2e-5
    if name == "toda":
        model = cw.ChainModel((1.0,), (0.5,), cw.PsiFamily.toda_remainder((1.0,)))
    else:
        model = request.getfixturevalue(name)
    grid = cw.make_grid(cw.default_half_length(model), num_points)
    solution = cw.solve_wave(model, grid, cw.SolveConfig(epsilon=eps))
    assert _lattice_defect(solution) <= 1e-10
    wrong = dataclasses.replace(solution, w=solution.w0 + (1.001 * eps**2) * solution.v)
    assert _lattice_defect(wrong) > 1e-10
