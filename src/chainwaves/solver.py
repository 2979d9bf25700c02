"""Corrector fixed-point solve producing supersonic solitary velocity profiles.

With the ansatz w = w0 + eps^2 v on the even subspace, the traveling wave
problem G_eps(w) = 0 of ``model.tw_defect`` becomes

    L_eps v = R_eps + S_eps + eps^2 Q_eps[v] + eps^2 N_eps[v],

where R + S = -G_eps(w0)/eps^2 is the residual of the limiting profile,
S = P_eps[w0] and eps^2 N[v] = P_eps[w0 + eps^2 v] - S the higher-order
terms, and L_eps = B_eps - 2 sum_m beta_m m^3 A(A w0 A .) the Jacobian of
the quadratic defect at w0. The paper's map

    F_eps[v] = L_eps^{-1}(R_eps + S_eps + eps^2 Q_eps[v] + eps^2 N_eps[v])

is iterated on the cosine coordinates of v from v = 0, with optional
damping. L_eps and R are built once per solve and handed to every step,
which forms eps^2 Q[v] + P_eps[w0 + eps^2 v] from averages, so no O(1) term
cancels in a step. It stops once an increment
is within TOL max(1, ||v||), at the first non-finite one, or after
``MAX_ITERATIONS`` steps, and a traveling-wave residual check is mandatory
before a solve is reported as successful.
"""

from __future__ import annotations

import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import ChainwavesError, CurvatureWarning, EmptyWindowError, NoConvergenceError
from .grid import GridFunction, SpectralGrid, derivative, l2_norm, sup_norm
from .linearized import TOL, LinearizedOperator, cosine_scale, even_synthesis, linearized_operator
from .model import ChainModel, PsiFamily, kdv_profile, psi_rows, tw_defect_spectrum, tw_residual
from .operators import averaging_stack

__all__ = [
    "SolveConfig", "SolveDiagnostics", "WaveSolution", "residuals",
    "fixed_point_map", "solve_wave", "eigen_identity_check", "measure_tail_decay",
    "SweepRow", "convergence_sweep",
]

_EPSILON_MIN = sys.float_info.min**0.25  # the least epsilon whose eps^4 is a normal float
TOL_RESIDUAL = 1e-9  # the mandatory final traveling-wave residual gate of every solve
MAX_ITERATIONS = 200  # the corrector's budget of map steps
_TAIL_LOWER, _TAIL_UPPER = 1e-8, 1e-4  # the fit window of measure_tail_decay


@dataclass(frozen=True)
class SolveConfig:
    """The epsilon and damping of one corrector solve.

    ``TOL``, ``MAX_ITERATIONS`` and ``TOL_RESIDUAL`` are constants. The
    final traveling-wave residual must reach ``TOL_RESIDUAL``; an iteration
    that stagnates short of it is reported as failed rather than returned
    silently. The defect is scaled by eps^-4, so epsilon starts where eps^4
    is a normal float.

    v is not trusted below epsilon 1e-4, since R carries round-off of about
    eps_mach/eps^2: on M2, ||v|| reads 0.0423646 at 1e-4, 0.0423694 at 1e-5
    and 0.0801466 at 1e-6, which the traveling-wave residual cannot see.
    """

    epsilon: float
    damping: float = 1.0

    def __post_init__(self) -> None:
        if not _EPSILON_MIN <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [{_EPSILON_MIN:.3g}, 1], got {self.epsilon}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    final_increment: float
    tw_residual: float
    corrector_norm: float
    sigma_min: float
    tail_decay_rate: float


@dataclass(frozen=True)
class WaveSolution:
    """Solitary wave profile with its corrector and solve diagnostics.

    ``w = w0 + eps^2 v`` holds exactly by construction; ``wave_speed_sq`` is
    c0^2 + eps^2.
    """

    model: ChainModel
    grid: SpectralGrid
    epsilon: float
    wave_speed_sq: float
    w0: GridFunction
    v: GridFunction
    w: GridFunction
    diagnostics: SolveDiagnostics

    @property
    def wave_speed(self) -> float:
        return math.sqrt(self.wave_speed_sq)


def _quadratic_residual(operator: LinearizedOperator) -> np.ndarray:
    """Cosine coordinates of R_eps = -G_eps(w0)/eps^2 of the operator's
    psi-free model: the real, so even, part of the defect's spectrum at the
    real spectrum of w0."""
    eps, grid = operator.eps, operator.grid
    defect = tw_defect_spectrum(operator.model, eps, grid, operator.w0_spectrum.real)
    return (-1.0 / eps**2) * cosine_scale(grid) * defect.real


def residuals(
    model: ChainModel, grid: SpectralGrid, eps: float, *, _operator=None
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine coordinates (r, s) of R_eps = (Q_eps[w0] - B_eps w0)/eps^2 and
    S_eps = P_eps[w0], both from the averages A_{m eps} w0; s is 0 for
    psi = none. ``_operator``: a sweep row's uncached L_eps."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    operator = _operator or linearized_operator(model, grid, eps)
    s = np.zeros(grid.num_points // 2 + 1)
    if model.psi.kind != "none":
        stack = averaging_stack(grid, eps, model.neighbor_range)
        rows = psi_rows(model, eps, stack.average(operator.w0_spectrum))
        s = (1.0 / eps**2) * cosine_scale(grid) * stack.adjoint_sum(rows).real
    return _quadratic_residual(operator), s


def fixed_point_map(
    model: ChainModel, v: np.ndarray, operator: LinearizedOperator, residual: np.ndarray
) -> np.ndarray:
    """One application of F_eps[v] = L_eps^{-1}(R + S + eps^2 Q[v] + eps^2 N[v])
    on the cosine coordinates ``v`` of the corrector; returns those of the image.

    The map is handed its L_eps, ``operator``, whose grid and eps it reads,
    and the coordinates ``residual`` of R. Since S + eps^2 N[v] = P_eps[w] at
    w = w0 + eps^2 v, the right-hand side is R + eps^2 Q[v] + P_eps[w]. One
    batched irfft gives the averages A_{m eps} v, a second one those of w
    when psi is not none, and one batched rfft takes back the rows
    eps^2 beta_m m^3 (A v)^2 + eps^-6 m psi'_m(m eps^2 A w).
    """
    grid, eps = operator.grid, operator.eps
    scale = cosine_scale(grid)
    stack = averaging_stack(grid, eps, model.neighbor_range)
    spectrum = v / scale
    ranges = np.arange(1, model.neighbor_range + 1)
    rows = (eps**2 * np.array(model.beta) * ranges**3)[:, None] * stack.average(spectrum) ** 2
    if model.psi.kind != "none":
        w_spectrum = operator.w0_spectrum.real + eps**2 * spectrum
        rows += (1.0 / eps**2) * psi_rows(model, eps, stack.average(w_spectrum))
    return operator.solve(residual + scale * stack.adjoint_sum(rows).real)


def measure_tail_decay(w: GridFunction) -> float:
    """Exponential decay rate from a log-linear fit on the right tail.

    Fits log w against x over the window where 1e-8 < w < 1e-4 and x > 0,
    returning the positive rate. Raises ``EmptyWindowError`` when fewer than
    two samples qualify. The floor 1e-8 keeps round-off in w out of the
    fit: an ulp-level change of a solved profile moves the rate by up to
    ~2e-8 relative with the window down to 1e-10, and by ~1e-9 with the
    window down to 1e-8.
    """
    x = w.grid.nodes
    values = w.values
    mask = (x > 0) & (values > _TAIL_LOWER) & (values < _TAIL_UPPER)
    if int(np.count_nonzero(mask)) < 2:
        raise EmptyWindowError(f"no tail samples with {_TAIL_LOWER:g} < w < {_TAIL_UPPER:g} on x > 0")
    return -_line_slope(x[mask], np.log(values[mask]))


def _line_slope(xs, ys) -> float:
    """Least-squares slope of the line through (xs, ys), in closed form on
    centred data: no LAPACK solve for a two-parameter fit."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    x = x - np.mean(x)
    return float(np.dot(x, y - np.mean(y)) / np.dot(x, x))


@contextmanager
def _one_curvature_warning():
    """Hold back the warnings raised inside that the caller's filters let
    through, and show them at the block's exit: of the ``CurvatureWarning``s
    only the one with the largest |r|, in its place among the others, and
    every other warning unchanged. Filtering happens when a warning is
    raised, as without the block, so nothing is filtered twice."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            yield
    finally:
        curvature = [w for w in caught if issubclass(w.category, CurvatureWarning)]
        worst = max(curvature, key=lambda w: w.message.peak, default=None)
        for w in caught:
            if w is worst or not issubclass(w.category, CurvatureWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)


def solve_wave(
    model: ChainModel, grid: SpectralGrid, config: SolveConfig, *, _residual=None, _operator=None
) -> WaveSolution:
    """Iterate the corrector map from v = 0 until the increments stall.

    Deterministic: identical configurations produce bit-identical results.
    Raises ``NoConvergenceError`` when ``MAX_ITERATIONS`` steps run out or the
    final traveling-wave residual misses ``TOL_RESIDUAL``, and
    propagates ``NearSingularError``/``DomainTooSmallError`` from below.
    Overflow and invalid warnings are off: the loop ends at a non-finite
    increment. The curvature warnings of its defect evaluations are merged
    into one, the one with the largest |r|. L_eps comes from the
    ``linearized_operator`` cache; ``_residual`` and ``_operator``: a sweep
    row's R and its uncached L_eps.
    """
    with _one_curvature_warning():
        return _solve_wave(model, grid, config, _residual, _operator)


def _solve_wave(
    model: ChainModel, grid: SpectralGrid, config: SolveConfig, residual=None, operator=None
) -> WaveSolution:
    eps = config.epsilon
    operator = operator or linearized_operator(model, grid, eps)
    if residual is None:
        residual = _quadratic_residual(operator)
    v = np.zeros(grid.num_points // 2 + 1)
    for iterations in range(1, MAX_ITERATIONS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            image = fixed_point_map(model, v, operator, residual)
            if config.damping < 1.0:
                image = (1.0 - config.damping) * v + config.damping * image
            increment = float(np.linalg.norm(image - v))
        if not math.isfinite(increment):
            raise NoConvergenceError(
                f"non-finite fixed point increment {increment} at iteration "
                f"{iterations} (eps = {eps:g})"
            )
        v = image
        if increment <= TOL * max(1.0, float(np.linalg.norm(v))):
            break
    else:
        raise NoConvergenceError(
            f"fixed point increments at {increment:.3e} after "
            f"{MAX_ITERATIONS} iterations (eps = {eps:g})"
        )
    v = even_synthesis(grid, v)
    w = operator.w0 + eps**2 * v
    residual = tw_residual(model, eps, w)
    if residual > TOL_RESIDUAL:
        raise NoConvergenceError(
            f"iteration stalled with traveling-wave residual {residual:.3e} "
            f"above {TOL_RESIDUAL:g}"
        )
    try:
        tail_rate = measure_tail_decay(w)
    except EmptyWindowError:
        tail_rate = float("nan")
    diagnostics = SolveDiagnostics(
        iterations=iterations,
        final_increment=increment,
        tw_residual=residual,
        corrector_norm=l2_norm(v),
        sigma_min=operator.smallest_singular_value(),
        tail_decay_rate=tail_rate,
    )
    return WaveSolution(
        model=model,
        grid=grid,
        epsilon=eps,
        wave_speed_sq=model.sound_speed_sq + eps**2,
        w0=operator.w0,
        v=v,
        w=w,
        diagnostics=diagnostics,
    )


def eigen_identity_check(solution: WaveSolution) -> float:
    """Relative residual of the differentiated traveling-wave identity.

    The shift symmetry makes w' a zero of the defect's Jacobian J_w; since
    eps^2 J_w V = c_eps^2 V - sum_m m^2 A(force_m'(m eps^2 A w) A V), this is
    the eigenvalue identity of w' with eigenvalue c_eps^2. Returns
    eps^2 ||J_w w'||_2 / ||w'||_2, with the 0/0 guard returning 0 for the
    trivial wave.
    """
    w_prime = derivative(solution.w, 1)
    norm = l2_norm(w_prime)
    if norm == 0.0:
        return 0.0
    eps = solution.epsilon
    jacobian = LinearizedOperator(solution.model, solution.grid, eps, solution.w)
    return eps**2 * l2_norm(jacobian.apply_l(w_prime)) / norm


@dataclass(frozen=True)
class SweepRow:
    """One resolution step of a convergence sweep; ``error`` marks failed rows."""

    epsilon: float
    l2_error: float | None = None
    sup_error: float | None = None
    order_l2: float | None = None
    order_sup: float | None = None
    iterations: int | None = None
    tw_residual: float | None = None
    sigma_min: float | None = None
    residual_norm_rs: float | None = None
    tail_rate: float | None = None
    error: str | None = None


def convergence_sweep(
    model: ChainModel,
    grid: SpectralGrid,
    epsilon_list,
    config: SolveConfig,
) -> list[SweepRow]:
    """Solve along a decreasing epsilon schedule and tabulate error orders.

    Each row solves with ``config`` whose epsilon is replaced by the row's
    entry of ``epsilon_list``, and reports distances to the limiting profile,
    the empirical order between consecutive rows, and per-solve diagnostics.
    Rows whose solve fails carry the error name instead of aborting the
    sweep; order entries are absent on the first row and next to failed
    rows. The curvature warnings of a row's residuals and solve are merged
    into one, as in ``solve_wave``. Each row builds its own L_eps, outside
    the ``linearized_operator`` cache, so a sweep holds one at a time.
    """
    eps_values = [float(e) for e in epsilon_list]
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("epsilon_list must be strictly decreasing")
    w0 = kdv_profile(model, grid)
    psi_free = replace(model, psi=PsiFamily())
    rows: list[SweepRow] = []
    previous: tuple[float, float, float] | None = None
    for eps in eps_values:
        operator = LinearizedOperator(psi_free, grid, eps, w0)
        with _one_curvature_warning():
            r, s = residuals(model, grid, eps, _operator=operator)
            rs_norm = float(np.linalg.norm(r)) + float(np.linalg.norm(s))
            del s
            try:
                config_eps = replace(config, epsilon=eps)
                solution = solve_wave(model, grid, config_eps, _residual=r, _operator=operator)
            except ChainwavesError as exc:
                rows.append(
                    SweepRow(
                        epsilon=eps,
                        residual_norm_rs=rs_norm,
                        error=type(exc).__name__.removesuffix("Error"),
                    )
                )
                previous = None
                continue
        l2_err = l2_norm(solution.w - w0)
        sup_err = sup_norm(solution.w - w0)
        order_l2 = order_sup = None
        if previous is not None:
            eps_prev, l2_prev, sup_prev = previous
            scale = math.log(eps_prev / eps)
            order_l2 = math.log(l2_prev / l2_err) / scale
            order_sup = math.log(sup_prev / sup_err) / scale
        rows.append(
            SweepRow(
                epsilon=eps,
                l2_error=l2_err,
                sup_error=sup_err,
                order_l2=order_l2,
                order_sup=order_sup,
                iterations=solution.diagnostics.iterations,
                tw_residual=solution.diagnostics.tw_residual,
                sigma_min=solution.diagnostics.sigma_min,
                residual_norm_rs=rs_norm,
                tail_rate=solution.diagnostics.tail_decay_rate,
            )
        )
        previous = (eps, l2_err, sup_err)
    return rows
