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
and the remainder is evaluated pointwise.

Every solve and rollout steps through one loop, `_march`, which cuts each
output span into sub-steps, writes every sample and guards it against
blow-up.  An (nx,) initial condition is a batch of one; an (n, nx) batch is
stepped as one state, with every FFT along the last axis, so each member
gets the same bits as on its own.  The guard is per member: a member that
blows up leaves the state at its first bad sample, keeping its finite rows,
and the others march on.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Add, Const, DepVar, Exp, IndepVar, LiesindyError, MissingSymbolError,
    Mul, dep_vars_in, evaluate, evaluate_array, is_zero, params_in,
    partial_derivative, simplify, substitute, to_string, _walk,
)
from .regress import model_to_equation

__all__ = [
    "SolverConfig", "TrajectoryGrid", "default_config", "builtin_configs",
    "sample_initial_condition", "solve_pde", "integrate_model", "add_noise",
    "save_trajectories", "load_trajectories",
    "DynamicsError", "BlowUpError", "ConfigError", "UnsupportedModelError",
]

SYSTEMS = ("kdv", "ks", "burgers", "nkdv")

BLOWUP_LIMIT = 1e6


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


def builtin_configs():
    return {s: default_config(s) for s in SYSTEMS}


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
    return TrajectoryGrid(traj.x, traj.t,
                          traj.u + rng.normal(0.0, scale, traj.u.shape), meta)


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
    ik = 1j * k

    def nonlinear(v):
        u = np.fft.irfft(v, nx, axis=-1)
        return -ik * mask * np.fft.rfft(0.5 * u * u, axis=-1)

    return nonlinear


def _etdrk4_coeffs(lin, h, m=64):
    """Contour-integral phi coefficients, stable near lin*h = 0.

    The mean runs over a full circle of complex contour points and is kept
    complex, which stays correct for the purely imaginary dispersive symbol
    (a half circle plus real part only works for real lin).
    """
    z = h * lin.astype(complex)
    r = np.exp(2j * math.pi * (np.arange(m) + 0.5) / m)
    zz = z[:, None] + r[None, :]
    q = h * np.mean((np.exp(zz / 2) - 1.0) / zz, axis=1)
    f1 = h * np.mean(
        (-4.0 - zz + np.exp(zz) * (4.0 - 3.0 * zz + zz ** 2)) / zz ** 3, axis=1)
    f2 = h * np.mean((2.0 + zz + np.exp(zz) * (-2.0 + zz)) / zz ** 3, axis=1)
    f3 = h * np.mean(
        (-4.0 - 3.0 * zz - zz ** 2 + np.exp(zz) * (4.0 - zz)) / zz ** 3, axis=1)
    return np.exp(z), np.exp(z / 2), q, f1, f2, f3


# _etdrk4_coeffs by (h, bytes of lin), oldest out first past _COEFFS_MAX:
# nKdV's 199 step sizes depend only on the t grid, so every solve on it
# shares them
_COEFFS = {}
_COEFFS_MAX = 512


def _make_etdrk4(lin, h, nonlinear):
    lin = lin.astype(complex)
    key = (h, lin.tobytes())
    if key not in _COEFFS:
        if len(_COEFFS) >= _COEFFS_MAX:
            del _COEFFS[next(iter(_COEFFS))]
        coeffs = _etdrk4_coeffs(lin, h)
        for a in coeffs:
            a.flags.writeable = False
        _COEFFS[key] = coeffs
    e1, e2, q, f1, f2, f3 = _COEFFS[key]

    def step(v):
        nv = nonlinear(v)
        a = e2 * v + q * nv
        na = nonlinear(a)
        b = e2 * v + q * na
        nb = nonlinear(b)
        c = e2 * a + q * (2.0 * nb - nv)
        nc = nonlinear(c)
        return e1 * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * nc

    return step


def _make_ifrk4(lin, h, nonlinear):
    e = np.exp(h * lin.astype(complex) / 2)
    e2 = e * e

    def step(v):
        a = h * nonlinear(v)
        b = h * nonlinear(e * (v + a / 2))
        c = h * nonlinear(e * v + b / 2)
        d = h * nonlinear(e2 * v + e * c)
        return e2 * v + (e2 * a + 2.0 * e * (b + c) + d) / 6.0

    return step


def _make_stepper(scheme, lin, nonlinear):
    """h -> `scheme`'s step of size h for v' = lin*v + nonlinear(v)."""
    make = _make_etdrk4 if scheme == "etdrk4" else _make_ifrk4
    return lambda h: make(lin, h, nonlinear)


def _blown(u):
    """Per row of u: non-finite, or some |value| above BLOWUP_LIMIT."""
    return ~np.isfinite(u).all(axis=-1) | (
        np.abs(u).max(axis=-1) > BLOWUP_LIMIT)


def _batch(ic, nx):
    """(ic as an (n, nx) float batch, whether ic was a batch already)."""
    ic = np.asarray(ic, dtype=float)
    if ic.ndim not in (1, 2) or ic.shape[-1] != nx:
        raise ConfigError(
            f"ic must have shape (nx,) or (n, nx) with nx = {nx}, "
            f"not {ic.shape}")
    return (ic, True) if ic.ndim == 2 else (ic[None], False)


def _march(make_step, ic, spans, sub, min_steps=1, skip=0):
    """Step the (n, nx) batch rfft(ic) across `spans` as one state.

    Each span is cut into max(min_steps, ceil(span/sub)) equal sub-steps,
    and the stepper is rebuilt only when the sub-step size changes.  Row 0
    is ic and row j the state after the j-th span.  With `skip`, the first
    skip spans are a discarded transient: guarded at steps -skip..-1, not
    stored, and the state after them becomes row 0.

    Returns one outcome per member: its (samples, nx) array u, or, if a
    sample is non-finite or beyond BLOWUP_LIMIT, a BlowUpError whose .step
    is the first bad one and whose .rows are the finite u[:step] before it.
    A blown member leaves the state; the others march on unchanged.
    """
    n, nx = ic.shape
    u = np.empty((n, len(spans) + 1 - skip, nx))
    u[:, 0] = ic
    out = list(u)
    live = np.arange(n)

    def keep(rows, j, step):
        """Mask of the live members whose row of `rows` is fine.

        Each other one gets its BlowUpError at `step`, with rows u[b, :j].
        """
        bad = _blown(rows)
        for b in live[bad]:
            out[b] = BlowUpError(f"solution blew up at step {step}",
                                 step=step, rows=u[b, :j])
        return ~bad

    with np.errstate(all="ignore"):
        if not skip:
            live = live[keep(ic, 0, 0)]
        state = np.fft.rfft(ic[live], axis=-1)
        advance = step_h = None
        for i, span in enumerate(spans, -skip):
            if not live.size:
                break
            m = max(min_steps, math.ceil(span / sub - 1e-12))
            h = span / m
            if advance is None or abs(h - step_h) > 1e-15 * abs(h):
                advance, step_h = make_step(h), h
            for _ in range(m):
                state = advance(state)
            # transient samples pass through row 0 as steps -skip..-1
            j = max(i + 1, 0)
            rows = np.fft.irfft(state, nx, axis=-1)
            u[live, j] = rows
            ok = keep(rows, j, j if i >= 0 else i)
            if not ok.all():
                live, state = live[ok], state[ok]
    return out


# ---------------------------------------------------------------------------
# ground-truth solves


def _tau_of_t(t, t0):
    return t0 * np.expm1(t / t0)


def solve_pde(system, ic, cfg: SolverConfig | None = None, meta=None):
    """Solve one built-in system from ic on the configured grid.

    An (nx,) ic returns one TrajectoryGrid.  An (n, nx) batch is stepped as
    one state and returns a list of n, each bit-identical to its own solve;
    `meta` is then a sequence of one dict (or None) per member.  A blow-up
    raises BlowUpError with the bad step and the finite rows before it; in
    a batch, those of the first member that blew up, which it names.

    The time-rescaled KdV runs as KdV in the substituted time tau(t) =
    t0*(e^{t/t0} - 1), stepped in sub-intervals of at most KdV's dt that
    land exactly on every tau(t_j), so no temporal interpolation is involved.
    """
    cfg = default_config(system) if cfg is None else cfg
    if cfg.system != system:
        raise ConfigError(f"config is for '{cfg.system}', not '{system}'")
    ics, batched = _batch(ic, cfg.nx)
    if not batched:
        metas = [meta]
    else:
        metas = [None] * len(ics) if meta is None else list(meta)
    if len(metas) != len(ics):
        raise ConfigError(f"{len(metas)} metas for {len(ics)} ics")
    x, t, k, mask = _grid(cfg)
    lin = _linear_symbol(system, k, cfg.params)
    make_step = _make_stepper(cfg.scheme, lin, _advection(k, mask, cfg.nx))
    skip = round(cfg.transient / cfg.dt)
    if system == "nkdv":
        spans = np.diff(_tau_of_t(t, cfg.params["t0"]))
        sub = default_config("kdv").dt
    else:
        # exactly dt per span: np.diff(t) would differ in the last bits
        spans, sub = [cfg.dt] * (skip + cfg.nt - 1), cfg.dt
    outcomes = _march(make_step, ics, spans, sub, skip=skip)
    for b, u in enumerate(outcomes):
        if isinstance(u, BlowUpError):
            if not batched:
                raise u
            raise BlowUpError(f"member {b}: {u}", step=u.step, rows=u.rows)
    trajs = []
    for u, m in zip(outcomes, metas):
        out_meta = {"system": system, "params": dict(cfg.params),
                    "noise_sigma": 0.0, **(m or {})}
        if skip:
            out_meta["transient"] = cfg.transient
        trajs.append(TrajectoryGrid(x, t, u, out_meta))
    return trajs if batched else trajs[0]


# ---------------------------------------------------------------------------
# integrating discovered models


def _split_monomial(term):
    factors = term.factors if isinstance(term, Mul) else (term,)
    coef = 1.0
    rest = []
    for f in factors:
        if isinstance(f, Const):
            coef *= f.value
        else:
            rest.append(f)
    return coef, rest


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
    c = evaluate(a, {"t": 0.0})
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
    terms = rest.terms if isinstance(rest, Add) else (rest,)
    linear = {}
    leftover = []
    for term in terms:
        coef, bases = _split_monomial(term)
        if len(bases) == 1 and isinstance(bases[0], DepVar):
            order = bases[0].order
            linear[order] = linear.get(order, 0.0) + coef
        elif not (len(bases) == 0 and coef == 0.0):
            leftover.append(term)
    left = simplify(Add(tuple(leftover))) if leftover else Const(0.0)
    return linear, left


def integrate_model(model, ic, cfg: SolverConfig):
    """Integrate a discovered model LHS = W*Theta from ic on cfg's grid.

    The equation is rearranged to u_t = g(...); a u_t coefficient of the
    form c*e^{g t} is removed by the exact change of time variable, the
    model's own constant-coefficient linear terms go into an integrating
    factor, and the remainder steps with RK4 at dt/4 substeps, sampling
    every 4th step.

    An (nx,) ic returns one TrajectoryGrid or raises BlowUpError.  An
    (n, nx) batch is stepped as one state and raises nothing for a
    blow-up: it returns, per member, its TrajectoryGrid or its BlowUpError
    (.step and the finite .rows), each bit-identical to its own call.
    """
    ics, batched = _batch(ic, cfg.nx)
    eq = simplify(substitute(model_to_equation(model), cfg.params))
    missing = sorted(p.name for p in params_in(eq))
    if missing:
        raise MissingSymbolError(
            f"model references unbound constants {missing}")
    c, gexp, rest = _time_coefficient(eq)
    linear, leftover = _linear_split(rest)

    x, t, k, mask = _grid(cfg)
    # du/ds = -(rest)/c in the rescaled time s with ds = e^{-g t} dt
    lin = np.zeros_like(k, dtype=complex)
    for order, w in linear.items():
        lin += (-w / c) * (1j * k) ** order
    lin *= mask

    needed = sorted({dv.order for dv in dep_vars_in(leftover)})
    has_leftover = not is_zero(leftover)

    def nonlinear(v):
        if not has_leftover:
            return np.zeros_like(v)
        u = np.fft.irfft(v, cfg.nx, axis=-1)
        binding = {"u": u}
        for order in needed:
            if order:
                binding["u_" + "x" * order] = np.fft.irfft(
                    (1j * k) ** order * v, cfg.nx, axis=-1)
        vals = np.broadcast_to(
            np.asarray(evaluate_array(leftover, binding), dtype=float),
            u.shape)
        return (-1.0 / c) * mask * np.fft.rfft(vals, axis=-1)

    s = t if gexp == 0.0 else -np.expm1(-gexp * t) / gexp
    outcomes = _march(_make_stepper("rk4-spectral", lin, nonlinear), ics,
                      np.diff(s), cfg.dt / 4.0, min_steps=4)
    out = [u if isinstance(u, BlowUpError) else
           TrajectoryGrid(x, t, u, {"system": cfg.system,
                                    "kind": "model-integration",
                                    "params": dict(cfg.params),
                                    "noise_sigma": 0.0})
           for u in outcomes]
    if batched:
        return out
    if isinstance(out[0], BlowUpError):
        raise out[0]
    return out[0]


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


def load_trajectories(path):
    """Returns (list of TrajectoryGrid, SolverConfig or None).

    Reads the layout save_trajectories writes, without unpickling.  A
    directory without `trajs.npz`, such as a dataset in the former CSV
    layout, or a manifest naming members the npz lacks, raises
    DynamicsError; such datasets are regenerated with `liesindy generate`.
    """
    npz = os.path.join(path, "trajs.npz")
    if not os.path.isfile(npz):
        raise DynamicsError(f"no trajs.npz in {path}; regenerate the "
                            f"dataset with `liesindy generate`")
    with open(os.path.join(path, "manifest")) as f:
        manifest = json.load(f)
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
    with np.load(npz) as data:
        try:
            x = data["x"]
            trajs = [TrajectoryGrid(x, data[f"t_{i}"], data[f"u_{i}"],
                                    dict(entry["meta"]))
                     for i, entry in enumerate(entries)]
        except KeyError as err:
            raise DynamicsError(
                f"incomplete trajectory set {path}: {err}") from None
    return trajs, cfg
