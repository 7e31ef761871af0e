"""Trajectory generation and model integration on periodic 1+1 grids.

Ground-truth data comes from pseudo-spectral method-of-lines solvers: FFT
derivatives, 2/3-rule dealiasing, and the configured scheme, ETDRK4 for the
stiff dispersive systems or integrating-factor RK4 for Burgers.  The
time-rescaled KdV variant is solved through its exact substitution onto KdV
time, under the configured scheme, landing on every requested output
instant rather than interpolating.

Discovered models are integrated by the same spectral machinery: the model's
own constant-coefficient linear part is absorbed into an integrating factor
(a bare explicit step is unstable for any dispersive model worth finding)
and the remainder is evaluated pointwise.  Models that share one equation
structure march as one batch, each member with its own coefficients.

Every solve and rollout takes an (n, nx) batch of initial conditions,
steps it as one state through one loop, `_march`, and returns one outcome
per member.  The loop cuts each output span into sub-steps, writes every
sample and guards it against blow-up.  A sample is the one inverse
transform of the state per span, and the next step's first stage reads it
instead of transforming the state again.  Every operation on the state
acts on each row alone, so each member gets the same bits as on its own; a
member that blows up stays in the state, unsampled, and its outcome is a
BlowUpError with its finite rows.
"""

from __future__ import annotations

import json
import math
import os
import sys
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Add, Const, DepVar, Exp, IndepVar, LiesindyError, MissingSymbolError,
    Param, compile_array, dep_vars_in, evaluate_array, is_zero, params_in,
    partial_derivative, simplify, substitute, to_string, _map_leaves, _walk,
)
from .regress import model_to_equation, project

__all__ = [
    "SolverConfig", "TrajectoryGrid", "default_config",
    "sample_initial_condition", "solve_pde", "integrate_model", "add_noise",
    "save_trajectories", "load_trajectories",
    "DynamicsError", "BlowUpError", "ConfigError", "UnsupportedModelError",
]

SYSTEMS = ("kdv", "ks", "burgers", "nkdv")

# system -> the solver params its equation reads
_PARAMS = {"kdv": (), "ks": (), "burgers": ("nu",), "nkdv": ("t0",)}

BLOWUP_LIMIT = 1e6

# bumped whenever solve_pde writes other bits for some config;
# ExperimentConfig.data_digest hashes it, so a dataset written by an older
# generator is refused.  2: closed-form ETDRK4 coefficients away from z = 0
GENERATOR_VERSION = 2


class DynamicsError(LiesindyError):
    pass


class ConfigError(DynamicsError):
    pass


class BlowUpError(DynamicsError):
    """Solution left the finite range; .step is the first bad sample index.

    .rows holds the finite samples before it, u[:step]; a step inside a
    discarded transient is negative and has no rows.
    """

    def __init__(self, message, step, rows=None):
        super().__init__(message)
        self.step = step
        self.rows = rows


class UnsupportedModelError(DynamicsError):
    """The model cannot be rearranged into an integrable u_t = g form."""


NUMBER = ((int, float), "a number")


def check_config_dict(d, types, what, error):
    """Raise `error` for keys of `d` outside `types` or mistyped values.

    `types` maps each key to (accepted types, their name in the message);
    JSON's true/false pass as integers only where bool is listed, and its
    NaN and Infinity pass nowhere.
    """
    unknown = sorted(set(d) - set(types))
    if unknown:
        raise error(f"unknown {what} keys {unknown}")
    for key, val in d.items():
        accepted, kind = types[key]
        if not isinstance(val, accepted) or (
                isinstance(val, bool) and bool not in accepted):
            raise error(f"{what} key '{key}' must be {kind}, not {val!r}")
        if isinstance(val, float) and not math.isfinite(val):
            raise error(f"{what} key '{key}' must be finite, not {val!r}")


_SOLVER_TYPES = {
    "system": ((str,), "a string"),
    "nx": ((int,), "an integer"),
    "length": NUMBER,
    "dt": NUMBER,
    "nt": ((int,), "an integer"),
    "scheme": ((str,), "a string"),
    "dealias": ((bool,), "true or false"),
    "transient": NUMBER,
    "params": ((dict,), "an object"),
}


@dataclass
class SolverConfig:
    system: str
    nx: int = 256
    length: float = 20.0
    dt: float = 0.01
    nt: int = 500
    scheme: str = "etdrk4"
    dealias: bool = True
    transient: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system '{self.system}'")
        stray = sorted(set(self.params) - set(_PARAMS[self.system]))
        if stray:
            raise ConfigError(f"{self.system} reads no solver params {stray}")
        for name, val in (("dt", self.dt), ("length", self.length),
                          ("transient", self.transient),
                          *self.params.items()):
            if not math.isfinite(val):
                raise ConfigError(f"{name} must be finite, not {val!r}")
        if self.nx < 16 or self.nx & (self.nx - 1):
            raise ConfigError("nx must be a power of two, at least 16")
        if self.nt < 8:
            raise ConfigError("nt must be at least 8")
        if self.dt <= 0 or self.length <= 0:
            raise ConfigError("dt and length must be positive")
        if self.scheme not in ("etdrk4", "rk4-spectral"):
            raise ConfigError(f"unknown scheme '{self.scheme}'")
        if self.transient < 0:
            raise ConfigError("transient must be non-negative")
        steps = self.transient / self.dt
        if steps > sys.maxsize:
            raise ConfigError(f"transient is {steps:.3g} steps of dt, "
                              f"more than {sys.maxsize}")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("transient must be a whole number of steps")
        if self.system == "burgers" and self.params.get("nu", 0.0) <= 0:
            raise ConfigError("burgers needs nu > 0")
        if self.system == "nkdv" and self.params.get("t0", 0.0) <= 0:
            raise ConfigError("nkdv needs t0 > 0")
        if self.system == "nkdv" and self.transient:
            # the equation depends on absolute t
            raise ConfigError("nkdv takes no transient")

    @property
    def horizon(self):
        return self.dt * self.nt

    def to_dict(self):
        return {"system": self.system, "nx": self.nx, "length": self.length,
                "dt": self.dt, "nt": self.nt, "scheme": self.scheme,
                "dealias": self.dealias, "transient": self.transient,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(
                f"solver must be an object, not {type(d).__name__}")
        check_config_dict(d, _SOLVER_TYPES, "solver", ConfigError)
        if "system" not in d:
            raise ConfigError("solver lacks required key 'system'")
        params = dict(d.get("params", {}))
        check_config_dict(params, dict.fromkeys(params, NUMBER),
                          "solver params", ConfigError)
        return cls(**{**d, "params": params})


def default_config(system: str) -> SolverConfig:
    if system == "kdv":
        return SolverConfig("kdv", nx=256, length=20.0, dt=0.01, nt=500)
    if system == "nkdv":
        # horizon 2, not KdV's 5: the time derivative grows like e^{t/t0},
        # and past t ~ 2 its finite-difference error swamps the regression
        # target even at this dt
        return SolverConfig("nkdv", nx=256, length=20.0, dt=0.01, nt=200,
                            params={"t0": 1.0})
    if system == "ks":
        return SolverConfig("ks", nx=256, length=32.0 * math.pi, dt=0.05,
                            nt=1000, transient=25.0)
    if system == "burgers":
        return SolverConfig("burgers", nx=128, length=2.0 * math.pi, dt=0.005,
                            nt=400, scheme="rk4-spectral",
                            params={"nu": 0.1})
    raise ConfigError(f"unknown system '{system}'")


@dataclass
class TrajectoryGrid:
    x: np.ndarray
    t: np.ndarray
    u: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.x.ndim != 1 or self.t.ndim != 1:
            raise ConfigError(f"x and t must be 1-D, got shapes "
                              f"{self.x.shape} and {self.t.shape}")
        nx, nt = self.x.size, self.t.size
        if nx < 16 or nx & (nx - 1):
            raise ConfigError("nx must be a power of two, at least 16")
        if nt < 8:
            raise ConfigError("nt must be at least 8")
        if self.u.shape != (nt, nx):
            raise ConfigError(
                f"u must be nt x nx = {(nt, nx)}, got {self.u.shape}")
        if not np.all(np.isfinite(self.u)):
            raise ConfigError("trajectory contains non-finite values")

    @property
    def h(self):
        return self.x[1] - self.x[0]

    @property
    def dt(self):
        return self.t[1] - self.t[0]


# ---------------------------------------------------------------------------
# initial conditions and noise


def sample_initial_condition(nx, length, seed, modes=None):
    """Zero-mean mixture of m in {2,3} sinusoids.

    Amplitudes uniform in [0.5, 1.5], integer wavenumbers in [1, 3], phases
    uniform in [0, 2pi); pass `modes` as (amplitude, wavenumber, phase)
    triples to bypass the draw.
    """
    x = np.arange(nx) * (length / nx)
    if modes is None:
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        modes = [(float(rng.uniform(0.5, 1.5)), int(rng.integers(1, 4)),
                  float(rng.uniform(0.0, 2.0 * math.pi))) for _ in range(m)]
    u0 = np.zeros(nx)
    for amp, k, phase in modes:
        u0 += amp * np.sin(2.0 * math.pi * k * x / length + phase)
    return u0 - u0.mean()


def add_noise(traj: TrajectoryGrid, sigma: float, seed) -> TrajectoryGrid:
    """Gaussian noise with std sigma*std(u), added once, after solving."""
    meta = dict(traj.meta)
    meta["noise_sigma"] = float(sigma)
    if sigma == 0.0:
        return TrajectoryGrid(traj.x, traj.t, traj.u.copy(), meta)
    rng = np.random.default_rng(seed)
    scale = sigma * float(np.std(traj.u))
    # u + draw summed into the draw's own buffer: one field-sized array
    # fewer
    draw = rng.normal(0.0, scale, traj.u.shape)
    return TrajectoryGrid(traj.x, traj.t, np.add(traj.u, draw, out=draw), meta)


# ---------------------------------------------------------------------------
# spectral plumbing


def _grid(cfg):
    """(x, t, wavenumbers, dealias mask) of cfg's periodic grid.

    The mask keeps bins up to nx//3 (2/3 rule for quadratic
    nonlinearities), or every bin when dealiasing is off.
    """
    nx = cfg.nx
    x = np.arange(nx) * (cfg.length / nx)
    t = np.arange(cfg.nt) * cfg.dt
    k = 2.0 * math.pi * np.fft.rfftfreq(nx, d=cfg.length / nx)
    keep = nx // 3 if cfg.dealias else nx
    return x, t, k, (np.arange(nx // 2 + 1) <= keep).astype(float)


def _linear_symbol(system, k, params):
    ik = 1j * k
    if system in ("kdv", "nkdv"):
        return -(ik ** 3)
    if system == "ks":
        return -(ik ** 2 + ik ** 4)
    if system == "burgers":
        return params["nu"] * ik ** 2
    raise ConfigError(f"unknown system '{system}'")


def _advection(k, mask, nx):
    """(v, u) -> the dealiased advection term -ik*mask*rfft(u^2/2).

    u is irfft(v), taken here when the caller passes None.
    """
    # -ik*mask*X associates as (-ik*mask)*X, so forming it once keeps the
    # bits, and so does moving the exact factor 0.5 from u*u onto it
    ik = 1j * k
    ikm = 0.5 * (-ik * mask)

    def nonlinear(v, u=None):
        if u is None:
            u = np.fft.irfft(v, nx, axis=-1)
        return ikm * np.fft.rfft(u * u, axis=-1)

    return nonlinear


# |z| below which _etdrk4_coeffs takes the contour mean
_CONTOUR_CUT = 1.0


def _etdrk4_coeffs(lin, h, m=64):
    """ETDRK4 coefficients (e^z, e^{z/2}, q, f1, f2, f3) at z = lin*h.

    The phi-functions take the closed forms of Cox & Matthews (J. Comput.
    Phys. 2002) where |z| >= _CONTOUR_CUT.  Nearer z = 0 those cancel, so
    such rows take Kassam & Trefethen's mean over m points of the unit
    circle about z (SIAM J. Sci. Comput. 2005).  Against the functions'
    Taylor series, the closed form is within 3e-14 relative for
    0.75 <= |z| <= 2 in every direction, and loses digits below 0.5
    (6e-12 at 0.1).
    The contour is within 2e-14 up to 0.75 but reads 1e-12 on the real
    and imaginary axes near |z| = 1, where its circle passes close to 0.
    The cut at 1 leaves the closed form a margin above 0.75 and takes the
    contour's worst band, 1 <= |z| < 1.5, off it.  The mean is kept
    complex, which stays correct for the purely imaginary dispersive
    symbol (a half circle plus real part only works for real lin).
    """
    z = h * lin.astype(complex)
    e1, e2 = np.exp(z), np.exp(z / 2)
    q, f1, f2, f3 = (np.empty_like(z) for _ in range(4))
    near = np.abs(z) < _CONTOUR_CUT
    far = ~near
    zf, ef = z[far], e1[far]
    zf2 = zf * zf
    hz3 = h / (zf2 * zf)
    q[far] = h * (e2[far] - 1.0) / zf
    f1[far] = hz3 * (-4.0 - zf + ef * (4.0 - 3.0 * zf + zf2))
    f2[far] = hz3 * (2.0 + zf + ef * (-2.0 + zf))
    f3[far] = hz3 * (-4.0 - 3.0 * zf - zf2 + ef * (4.0 - zf))
    r = np.exp(2j * math.pi * (np.arange(m) + 0.5) / m)
    zz = z[near, None] + r[None, :]
    ez, zz2, zz3 = np.exp(zz), zz ** 2, zz ** 3
    q[near] = h * np.mean((np.exp(zz / 2) - 1.0) / zz, axis=1)
    f1[near] = h * np.mean(
        (-4.0 - zz + ez * (4.0 - 3.0 * zz + zz2)) / zz3, axis=1)
    f2[near] = h * np.mean((2.0 + zz + ez * (-2.0 + zz)) / zz3, axis=1)
    f3[near] = h * np.mean(
        (-4.0 - 3.0 * zz - zz2 + ez * (4.0 - zz)) / zz3, axis=1)
    return e1, e2, q, f1, f2, f3


def _make_etdrk4(lin, h, nonlinear):
    e1, e2, q, f1, f2, f3 = _etdrk4_coeffs(lin, h)
    # the step's 2.0*f2*X associates as (2.0*f2)*X, so folding it keeps the
    # bits
    f2x2 = 2.0 * f2

    def step(v, u=None):
        nv = nonlinear(v, u)
        e2v = e2 * v
        a = e2v + q * nv
        na = nonlinear(a)
        b = e2v + q * na
        nb = nonlinear(b)
        c = e2 * a + q * (2.0 * nb - nv)
        nc = nonlinear(c)
        return e1 * v + f1 * nv + f2x2 * (na + nb) + f3 * nc

    return step


def _make_ifrk4(lin, h, nonlinear):
    e = np.exp(h * lin.astype(complex) / 2)
    e2 = e * e
    # 2.0*e*X associates as (2.0*e)*X, so folding it keeps the bits
    ex2 = 2.0 * e

    def step(v, u=None):
        e2v = e2 * v
        a = h * nonlinear(v, u)
        b = h * nonlinear(e * (v + a / 2))
        c = h * nonlinear(e * v + b / 2)
        d = h * nonlinear(e2v + e * c)
        return e2v + (e2 * a + ex2 * (b + c) + d) / 6.0

    return step


def _make_stepper(scheme, lin, nonlinear):
    """h -> `scheme`'s step of size h for v' = lin*v + nonlinear(v).

    lin is one (nk,) symbol shared by every member or an (n, nk) array of
    one row per member.  The step takes v and, optionally, u = irfft(v),
    which its first stage hands to nonlinear(v, u) in place of
    transforming v again.
    """
    make = _make_etdrk4 if scheme == "etdrk4" else _make_ifrk4
    return lambda h: make(lin, h, nonlinear)


def _blown(u):
    """Per row of u: non-finite, or some |value| above BLOWUP_LIMIT."""
    # max propagates NaN, and NaN <= BLOWUP_LIMIT is false
    return ~(np.abs(u).max(axis=-1) <= BLOWUP_LIMIT)


def _batch(ics, nx):
    """ics as an (n, nx) float array."""
    ics = np.asarray(ics, dtype=float)
    if ics.ndim != 2 or ics.shape[1] != nx:
        raise ConfigError(
            f"ics must have shape (n, nx) with nx = {nx}, not {ics.shape}")
    return ics


def _march(make_step, ics, spans, sub, min_steps=1, skip=0):
    """Step the (n, nx) batch rfft(ics) across `spans` as one state.

    Each span is cut into max(min_steps, ceil(span/sub)) equal sub-steps;
    make_step(h) builds the step of size h, once per run of equal sizes.
    Row 0 is ics and row j the state after the j-th span.  With `skip`, the
    first skip spans are a discarded transient: guarded at steps -skip..-1,
    not stored, and the state after them becomes row 0.

    Returns one outcome per member: its (samples, nx) array u, or, if a
    sample is non-finite or beyond BLOWUP_LIMIT, a BlowUpError whose .step
    is the first bad one and whose .rows are the finite u[:step] before it.
    A blown member is no longer sampled but stays in the state; every
    operation on the state acts on each row alone, so the others keep their
    bits.  The march stops once no member is left.

    Each sample is the one inverse transform of the state per span: the
    next span's first step takes it as its u = irfft(v) (see
    _make_stepper) instead of transforming the same state again.
    """
    n, nx = ics.shape
    # one array per member, so each is freed with its own trajectory
    u = [np.empty((len(spans) + 1 - skip, nx)) for _ in range(n)]
    out = list(u)
    live = range(n)             # the members still sampled

    def sample(rows, j, step):
        """Store row j of the live members, guarded as `step`."""
        nonlocal live
        bad = _blown(rows)
        if bad.any():
            for b in live:
                if bad[b]:
                    out[b] = BlowUpError(f"solution blew up at step {step}",
                                         step=step, rows=u[b][:j])
            live = [b for b in live if not bad[b]]
        for b in live:
            u[b][j] = rows[b]

    with np.errstate(all="ignore"):
        if not skip:
            sample(ics, 0, 0)
        state = np.fft.rfft(ics, axis=-1)
        physical = None         # irfft(state) once the last sample took it
        step_h = None
        for i, span in enumerate(spans, -skip):
            if not live:
                break
            m = max(min_steps, math.ceil(span / sub - 1e-12))
            h = span / m
            if step_h is None or abs(h - step_h) > 1e-15 * abs(h):
                advance, step_h = make_step(h), h
            for _ in range(m):
                state, physical = advance(state, physical), None
            physical = np.fft.irfft(state, nx, axis=-1)
            # transient samples pass through row 0 as steps -skip..-1
            j = max(i + 1, 0)
            sample(physical, j, j if i >= 0 else i)
    return out


# ---------------------------------------------------------------------------
# ground-truth solves


def _tau_of_t(t, t0):
    return t0 * np.expm1(t / t0)


def solve_pde(cfg: SolverConfig, ics, metas=None):
    """Solve cfg's system from each row of the (n, nx) batch ics.

    Returns, per member, its TrajectoryGrid or its BlowUpError (.step and
    the finite .rows), bit-identical to a batch of that member alone.
    `metas` holds one dict (or None) per member, merged into its meta.

    The time-rescaled KdV runs as KdV in the substituted time tau(t) =
    t0*(e^{t/t0} - 1), stepped in sub-intervals of at most KdV's dt that
    land exactly on every tau(t_j), so no temporal interpolation is involved.
    """
    ics = _batch(ics, cfg.nx)
    metas = [None] * len(ics) if metas is None else list(metas)
    if len(metas) != len(ics):
        raise ConfigError(f"{len(metas)} metas for {len(ics)} ics")
    x, t, k, mask = _grid(cfg)
    lin = _linear_symbol(cfg.system, k, cfg.params)
    make_step = _make_stepper(cfg.scheme, lin, _advection(k, mask, cfg.nx))
    skip = round(cfg.transient / cfg.dt)
    if cfg.system == "nkdv":
        spans = np.diff(_tau_of_t(t, cfg.params["t0"]))
        sub = default_config("kdv").dt
    else:
        # exactly dt per span: np.diff(t) would differ in the last bits
        spans, sub = [cfg.dt] * (skip + cfg.nt - 1), cfg.dt
    outcomes = _march(make_step, ics, spans, sub, skip=skip)
    trajs = []
    for u, m in zip(outcomes, metas):
        out_meta = {"system": cfg.system, "params": dict(cfg.params),
                    "noise_sigma": 0.0, **(m or {})}
        if skip:
            out_meta["transient"] = cfg.transient
        trajs.append(u if isinstance(u, BlowUpError) else
                     TrajectoryGrid(x, t, u, out_meta))
    return trajs


# ---------------------------------------------------------------------------
# integrating discovered models


def _time_coefficient(eq):
    """Split eq = a(t)*u_t + rest; a must be c or c*e^{g*t}."""
    ut = DepVar("u", ("t",))
    a = simplify(partial_derivative(eq, ut))
    if is_zero(a) or dep_vars_in(a):
        raise UnsupportedModelError(
            f"equation is not affine in u_t with a state-free coefficient: "
            f"{to_string(eq)}")
    da = simplify(partial_derivative(a, IndepVar("t")))
    ratio = simplify(da / a)
    if not isinstance(ratio, Const):
        raise UnsupportedModelError(
            f"u_t coefficient {to_string(a)} is not c*exp(g*t)")
    g = ratio.value
    c = float(evaluate_array(a, {"t": 0.0}))
    check = simplify(a - Const(c) * Exp(Const(g) * IndepVar("t"))) if g \
        else simplify(a - Const(c))
    if not is_zero(check):
        raise UnsupportedModelError(
            f"u_t coefficient {to_string(a)} is not c*exp(g*t)")
    rest = simplify(eq - a * ut)
    bad = [dv.display() for dv in dep_vars_in(rest) if "t" in dv.index]
    if bad:
        raise UnsupportedModelError(f"time derivatives on the right: {bad}")
    for dv in dep_vars_in(rest):
        if any(ch != "x" for ch in dv.index):
            raise UnsupportedModelError(
                f"{dv.display()} is not a pure spatial derivative")

    found = []
    _walk(rest, lambda e: found.append(e.name)
          if isinstance(e, IndepVar) else None)
    if found:
        raise UnsupportedModelError(
            "explicit x or t dependence on the right side is not integrable "
            "by the spectral stepper")
    return c, g, rest


def _linear_split(rest):
    """rest -> (dict spatial-order -> coefficient, leftover Expr)."""
    coefs, leftover = project(rest, [DepVar("u", ("x",) * k)
                                     for k in range(5)])
    linear = {order: c for order, c in enumerate(coefs) if c != 0.0}
    return linear, simplify(Add(tuple(leftover))) if leftover else Const(0.0)


def _lift_consts(e, consts):
    """e with each Const, depth first, replaced by Param("_c<i>").

    The i-th constant's value is appended to consts.
    """
    def lift(n):
        if not isinstance(n, Const):
            return n
        consts.append(n.value)
        return Param(f"_c{len(consts) - 1}")

    return _map_leaves(e, lift)


def _rollout_form(model, cfg):
    """(structure, c, linear weights, leftover constants) of a model.

    The model's equation on cfg's params is c*e^{g t}*u_t + linear terms +
    leftover.  The structure is (g, the linear orders in order, the
    leftover with its constants lifted by _lift_consts, or None when it is
    zero); models that share it march as one group.  Raises
    UnsupportedModelError or MissingSymbolError for a model that cannot
    be rolled out.
    """
    eq = simplify(substitute(model_to_equation(model), cfg.params))
    missing = sorted(p.name for p in params_in(eq))
    if missing:
        raise MissingSymbolError(
            f"model references unbound constants {missing}")
    c, gexp, rest = _time_coefficient(eq)
    linear, leftover = _linear_split(rest)
    consts = []
    shape = None if is_zero(leftover) else _lift_consts(leftover, consts)
    return (gexp, tuple(linear), shape), c, tuple(linear.values()), consts


def _leftover_term(shape, consts, scale, k, mask, nx):
    """(v, u) -> scale*mask*rfft(shape), each member with its own constants.

    consts maps each lifted constant's name to its (n, 1) column of member
    values and scale is the (n, 1) column of -1/c.  shape is compiled once;
    each call evaluates it under _march's error state.  u and its
    derivatives come from one inverse transform of [v, (ik)^o v ...],
    stacked in one buffer; a u = irfft(v) passed in leaves only the
    derivative rows to transform.
    """
    if shape is None:
        return lambda v, u=None: np.zeros_like(v)
    dvs = dep_vars_in(shape)
    needed = sorted({dv.order for dv in dvs} - {0})
    names = ["u"] + ["u_" + "x" * order for order in needed]
    ikp = np.array([(1j * k) ** order for order in needed],
                   dtype=complex).reshape(len(needed), 1, k.size)
    evaluate = compile_array(shape)
    if dvs:
        rhs = evaluate
    else:
        def rhs(binding):
            # constants only: lift the value to u's shape
            return np.broadcast_to(evaluate(binding), binding["u"].shape)

    binding = dict(consts)
    # scale*mask*X associates as (scale*mask)*X, so forming it once keeps
    # the bits
    sm = scale * mask
    stacked = np.empty((len(names), scale.shape[0], k.size), dtype=complex)

    def nonlinear(v, u=None):
        np.multiply(ikp, v, out=stacked[1:])
        if u is None:
            stacked[0] = v
            fields = np.fft.irfft(stacked, nx, axis=-1)
        elif needed:
            fields = [u, *np.fft.irfft(stacked[1:], nx, axis=-1)]
        else:
            fields = [u]
        binding.update(zip(names, fields))
        return sm * np.fft.rfft(rhs(binding), axis=-1)

    return nonlinear


def integrate_model(models, ics, cfg: SolverConfig):
    """Integrate discovered models LHS = W*Theta on cfg's grid.

    Member b integrates models[b] from row b of the (n, nx) batch ics.  The
    equation is rearranged to u_t = g(...); a u_t coefficient of the form
    c*e^{g t} is removed by the exact change of time variable, the model's
    own constant-coefficient linear terms go into an integrating factor,
    and the remainder steps with RK4 at dt/4 substeps, sampling every 4th
    step.  Members whose models share one structure (see _rollout_form)
    march as one state, each with its own coefficients.

    Returns, per member, its TrajectoryGrid, its BlowUpError (.step and the
    finite .rows), or the UnsupportedModelError or MissingSymbolError of a
    model that cannot be rolled out; each is the outcome of a batch of that
    member alone, bit for bit.
    """
    ics = _batch(ics, cfg.nx)
    if len(models) != len(ics):
        raise ConfigError(f"{len(models)} models for {len(ics)} ics")
    forms = {}
    out = [None] * len(ics)
    groups = {}
    for b, m in enumerate(models):
        if id(m) not in forms:
            try:
                forms[id(m)] = _rollout_form(m, cfg)
            except LiesindyError as err:
                forms[id(m)] = err
        if isinstance(forms[id(m)], LiesindyError):
            out[b] = forms[id(m)]
        else:
            groups.setdefault(forms[id(m)][0], []).append(b)

    x, t, k, mask = _grid(cfg)
    for (gexp, orders, shape), members in groups.items():
        group = [forms[id(models[b])][1:] for b in members]
        # du/ds = -(rest)/c in the rescaled time s with ds = e^{-g t} dt
        lin = np.zeros((len(members), k.size), dtype=complex)
        for row, (c, weights, _) in zip(lin, group):
            for order, w in zip(orders, weights):
                row += (-w / c) * (1j * k) ** order
        lin *= mask
        scale = np.array([[-1.0 / c] for c, _, _ in group])
        consts = {f"_c{i}": np.array([[f[2][i]] for f in group])
                  for i in range(len(group[0][2]))}
        nonlinear = _leftover_term(shape, consts, scale, k, mask, cfg.nx)
        s = t if gexp == 0.0 else -np.expm1(-gexp * t) / gexp
        outcomes = _march(_make_stepper("rk4-spectral", lin, nonlinear),
                          ics[members], np.diff(s), cfg.dt / 4.0,
                          min_steps=4)
        for b, u in zip(members, outcomes):
            out[b] = u if isinstance(u, BlowUpError) else TrajectoryGrid(
                x, t, u, {"system": cfg.system, "kind": "model-integration",
                          "params": dict(cfg.params), "noise_sigma": 0.0})
    return out


# ---------------------------------------------------------------------------
# trajectory files


def save_trajectories(path, trajs, config: SolverConfig | None = None):
    """One directory per set: a JSON `manifest` and one `trajs.npz`.

    The manifest holds the solver config, the member count and each
    member's meta.  The npz holds the shared grid as `x` and member i's
    times and values as `t_<i>` and `u_<i>`, so members may differ in nt.
    load_trajectories restores every array bit-exactly, and saving the same
    set twice writes identical bytes.
    """
    if not trajs:
        raise DynamicsError("nothing to save")
    os.makedirs(path, exist_ok=True)
    x = trajs[0].x
    for tr in trajs:
        if not np.array_equal(tr.x, x):
            raise DynamicsError("all trajectories in a set share one x grid")
    manifest = {
        "config": config.to_dict() if config is not None else None,
        "count": len(trajs),
        "trajs": [{"meta": tr.meta} for tr in trajs],
    }
    with open(os.path.join(path, "manifest"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    arrays = {"x": x}
    for i, tr in enumerate(trajs):
        arrays[f"t_{i}"] = tr.t
        arrays[f"u_{i}"] = tr.u
    np.savez(os.path.join(path, "trajs.npz"), **arrays)


def read_json(path, error=DynamicsError):
    """The value of the JSON file at `path`; `error` naming the file if it
    is not UTF-8 text or not JSON."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as err:
        raise error(f"{path} is not UTF-8 text (byte {err.start})") from None
    except json.JSONDecodeError as err:
        raise error(f"{path}: {err}") from None


def load_trajectories(path):
    """Returns (list of TrajectoryGrid, SolverConfig or None).

    Reads the layout save_trajectories writes, without unpickling.  A
    directory without `trajs.npz`, such as a dataset in the former CSV
    layout, or a manifest naming members the npz lacks, raises
    DynamicsError; such datasets are regenerated with `liesindy generate`.
    So does a `trajs.npz` that is not an npz, holds object arrays or an
    invalid grid, and a manifest whose `count` or whose npz's `u_<i>`
    members do not match its list.
    """
    npz = os.path.join(path, "trajs.npz")
    if not os.path.isfile(npz):
        raise DynamicsError(f"no trajs.npz in {path}; regenerate the "
                            f"dataset with `liesindy generate`")
    manifest = read_json(os.path.join(path, "manifest"))
    if not isinstance(manifest, dict):
        raise DynamicsError(f"{path}/manifest is not a JSON object")
    entries = manifest.get("trajs")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("meta"), dict)
            for e in entries):
        raise DynamicsError(f"{path}/manifest: trajs must be a list of "
                            f"objects, each with a meta object")
    cfg = (SolverConfig.from_dict(manifest["config"])
           if manifest.get("config") else None)
    try:
        with np.load(npz) as data:
            x = data["x"]
            trajs = [TrajectoryGrid(x, data[f"t_{i}"], data[f"u_{i}"],
                                    dict(entry["meta"]))
                     for i, entry in enumerate(entries)]
            held = sum(name.startswith("u_") for name in data.files)
    except KeyError as err:
        raise DynamicsError(
            f"incomplete trajectory set {path}: {err}") from None
    except ConfigError as err:
        raise DynamicsError(f"invalid trajectory set {npz}: {err}") from None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as err:
        # not an npz, or members only unpickling could read; the reason
        # keeps numpy's first sentence, not its advice to unpickle
        reason = str(err).partition(". ")[0].replace("\n", " ")
        raise DynamicsError(
            f"unreadable trajectory set {npz}: {reason}") from None
    count = manifest.get("count")
    if count != len(trajs) or held != len(trajs):
        raise DynamicsError(
            f"{path}/manifest lists {len(trajs)} members, but its count is "
            f"{count!r} and {npz} holds {held}")
    return trajs, cfg
