"""Trajectory generation and model integration on periodic 1+1 grids.

Ground truth and discovered models take one path from an equation to
data.  A system's equation (_STANDARD, which the catalog's truth equation
reads) or a model's is split as c*e^{g t}*u_t + linear terms + a*u*u_x +
any leftover (_equation_form) and marched pseudo-spectrally, with FFT
derivatives and 2/3-rule dealiasing.  The exact change of time
ds = e^{-g t} dt removes e^{g t}, so the time-rescaled KdV marches as KdV,
landing on every output instant without interpolating.  The linear terms
go into the scheme's exponential or integrating factor (a bare explicit
step is unstable for any dispersive model worth finding); a remainder of
exactly a*u*u_x steps through the dealiased advection kernel, a/c folded
into its symbol, and any other remainder is evaluated pointwise.  A solve
steps by its system's scheme, ETDRK4 for the stiff dispersive systems or
integrating-factor RK4 for Burgers, in steps of at most dt, after any
discarded transient in steps of at most its system's h_T; a rollout by
integrating-factor RK4 at dt/4 (_make_ifrk4), models of one equation
structure marching as one batch, each with its own coefficients.

Every solve and rollout takes an (n, nx) batch of initial conditions,
steps it as one state through one loop, `_march`, and returns one outcome
per member.  Each output span is cut once, by _march_group, into
max(dt/sub, ceil(span/sub)) equal sub-steps, sub being dt in a solve and
dt/4 in a rollout; the loop steps through that schedule, writes every
sample and guards it against blow-up.  A sample is the one inverse
transform of the state per span, and the next step's first stage reads it
instead of transforming the state again.  Every operation on the state
acts on each row alone, so each member gets the same bits as on its own; a
member that blows up stays in the state, unsampled, and its outcome is a
BlowUpError with its finite rows.

Every spectral transform, here and in jetgrid.spectral_jets, is one of a
pair of helpers, _rfft and _irfft.  On numpy >= 2 they call the pocketfft
gufuncs that np.fft.rfft and irfft call, with the same scale factors, so
the bits are np.fft's; but they write into a buffer the caller owns and
skip np.fft's Python wrapper, which costs about as much as the 8-row
transforms of 256 points that a rollout stage makes.  The march and each
kernel hold their own buffers, sized from the (n, nk) state, and each
IF-RK4 step holds two for its stage inputs; what a kernel or a step
returns is always a new array.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Add, Const, DepVar, Exp, IndepVar, LiesindyError, MissingSymbolError,
    Param, SPACE, compile_array, dep_vars_in, evaluate_array, is_zero, parse,
    params_in, partial_derivative, simplify, substitute, to_string,
    _map_leaves, _walk,
)
from .regress import model_to_equation, project

__all__ = [
    "SolverConfig", "TrajectoryGrid", "default_config",
    "sample_initial_condition", "solve_pde", "integrate_model", "add_noise",
    "save_trajectories", "load_trajectories",
    "DynamicsError", "BlowUpError", "ConfigError", "UnsupportedModelError",
]

# system -> (its equation F = 0, its time scheme, its standard solver
# settings, its transient step h_T), the one place each is written; its
# params are the ones its equation reads.  Each equation is
# c*e^{g t}*u_t + linear terms + a*u*u_x (see _equation_form).  nkdv's
# horizon is 2, not KdV's 5: its time derivative grows like e^{t/t0}, and
# past t ~ 2 its finite-difference error swamps the regression target.
# The discarded transient is marched in steps of at most h_T, or of dt
# where h_T is None (_transient_spans): only the stored samples need dt,
# and KS takes Kassam & Trefethen's h = 1/4 (SIAM J. Sci. Comput. 2005)
_STANDARD = {
    "kdv": ("u_t + u*u_x + u_xxx", "etdrk4",
            dict(nx=256, length=20.0, dt=0.01, nt=500), None),
    "ks": ("u_t + u*u_x + u_xx + u_xxxx", "etdrk4",
           dict(nx=256, length=32.0 * math.pi, dt=0.05, nt=1000,
                transient=25.0), 0.25),
    "burgers": ("u_t + u*u_x - nu*u_xx", "rk4-spectral",
                dict(nx=128, length=2.0 * math.pi, dt=0.005, nt=400,
                     params={"nu": 0.1}), None),
    "nkdv": ("exp(-t/t0)*u_t + u*u_x + u_xxx", "etdrk4",
             dict(nx=256, length=20.0, dt=0.01, nt=200, params={"t0": 1.0}),
             None),
}

SYSTEMS = tuple(_STANDARD)

BLOWUP_LIMIT = 1e6

# the most sub-steps one march takes: a sub-step of an 8-member batch at
# nx 256 costs 0.1-0.16 ms on a 2-CPU VM, so this is at most about half an
# hour; nkdv at t0 0.2 solves in 4.2e5 (a rollout 1.7e6), at t0 0.1 it
# would take 4.4e9 (1.8e10); a KS transient of 1e6 marches, in 4e6 steps
# of h_T
_MAX_SUBSTEPS = 10 ** 7

# bumped whenever solve_pde writes other bits for some config;
# ExperimentConfig.data_digest hashes it, so a dataset written by an older
# generator is refused.  2: closed-form ETDRK4 coefficients away from z = 0;
# 3: phi-series coefficients near z = 0;
# 4: IF-RK4 constants folded; rk4-spectral solves;
# 5: nkdv solves by the rollouts' rescaled spans, in steps of at most dt;
# 6: the KS transient in steps of at most h_T = 1/4, not dt (_STANDARD)
GENERATOR_VERSION = 6


class DynamicsError(LiesindyError):
    pass


class ConfigError(DynamicsError):
    pass


class BlowUpError(DynamicsError):
    """Solution left the finite range; .step is the first bad sample index.

    .rows holds the finite samples before it, u[:step]; a step inside a
    discarded transient is negative, counting its spans of at most h_T
    (_transient_spans), and has no rows.
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
    "transient": NUMBER,
    "params": ((dict,), "an object"),
    # older layouts' keys, taken only at the system's own value (from_dict)
    "scheme": ((str,), "a string"),
    "dealias": ((bool,), "true or false"),
}


@dataclass
class SolverConfig:
    """A system's grid, transient and params; built directly, it has no
    transient or params unless given (see from_dict)."""

    system: str
    nx: int
    length: float
    dt: float
    nt: int
    transient: float = 0.0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system '{self.system}'")
        reads = _STANDARD[self.system][2].get("params", ())
        stray = sorted(set(self.params) - set(reads))
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
        if 8 * self.nt * self.nx > sys.maxsize:
            raise ConfigError(f"an nt x nx = {self.nt} x {self.nx} grid's "
                              f"trajectory is more than {sys.maxsize} bytes")
        if self.dt <= 0 or self.length <= 0:
            raise ConfigError("dt and length must be positive")
        if not math.pi * self.nx / self.length < math.inf:
            raise ConfigError(f"length {self.length!r} is too short for nx "
                              f"{self.nx}: its wavenumbers overflow")
        if self.transient < 0:
            raise ConfigError("transient must be non-negative")
        steps = self.transient / self.dt
        if steps > sys.maxsize:
            raise ConfigError(f"transient is {steps:.3g} steps of dt, "
                              f"more than {sys.maxsize}")
        for name in reads:
            if self.params.get(name, 0.0) <= 0:
                raise ConfigError(f"{self.system} needs {name} > 0")
        if self.system == "nkdv" and self.transient:
            # the equation depends on absolute t
            raise ConfigError("nkdv takes no transient")

    def to_dict(self):
        return {"system": self.system, "nx": self.nx, "length": self.length,
                "dt": self.dt, "nt": self.nt, "transient": self.transient,
                "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d):
        """The config d holds, each key it omits the system's standard
        one; params, when given, replace the standard ones whole."""
        if not isinstance(d, dict):
            raise ConfigError(
                f"solver must be an object, not {type(d).__name__}")
        check_config_dict(d, _SOLVER_TYPES, "solver", ConfigError)
        if "system" not in d:
            raise ConfigError("solver lacks required key 'system'")
        if d["system"] not in _STANDARD:
            raise ConfigError(f"unknown system '{d['system']}'")
        d = dict(d)
        _, scheme, standard, _ = _STANDARD[d["system"]]
        for key, fixed in (("scheme", scheme), ("dealias", True)):
            if (val := d.pop(key, fixed)) != fixed:
                raise ConfigError(
                    f"solver key '{key}' is fixed at {json.dumps(fixed)} "
                    f"for {d['system']}, not {json.dumps(val)}")
        params = dict(d.get("params", standard.get("params", {})))
        check_config_dict(params, dict.fromkeys(params, NUMBER),
                          "solver params", ConfigError)
        return cls(**{**standard, **d, "params": params})


def default_config(system: str) -> SolverConfig:
    """system's standard solver settings (see _STANDARD)."""
    return SolverConfig.from_dict({"system": system})


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
    # a length near the float range makes 2 pi k x inf and its sine NaN,
    # which the solve reports as a blow-up at step 0
    with np.errstate(over="ignore", invalid="ignore"):
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

# see _pocketfft; None until the first transform, as importing numpy.fft
# here would add its import to every program that imports liesindy
_POCKETFFT = None


def _pocketfft():
    """numpy >= 2's pocketfft gufuncs (rfft_n_even, irfft), taken only if
    they give np.fft's bits on a probe array; where they are missing,
    renamed, re-signed or give other bits, False: the transforms are
    np.fft's."""
    global _POCKETFFT
    if _POCKETFFT is None:
        _POCKETFFT = False
        probe = np.sin(np.arange(32.0)).reshape(2, 16)
        try:
            from numpy.fft import _pocketfft_umath as gufuncs
            pair = gufuncs.rfft_n_even, gufuncs.irfft
            v = pair[0](probe, 1, out=np.empty((2, 9), dtype=complex))
            u = pair[1](v, 1.0 / 16, out=np.empty((2, 16)))
        except (ImportError, AttributeError, TypeError, ValueError):
            return False
        if (v.tobytes(), u.tobytes()) == (np.fft.rfft(probe).tobytes(),
                                          np.fft.irfft(v).tobytes()):
            _POCKETFFT = pair
    return _POCKETFFT


def _rfft(u, out):
    """rfft(u, axis=-1) of real u with an even last axis.

    With the gufuncs it is written into `out`, (..., nx//2 + 1), and
    returned; without, it is np.fft.rfft's new array and `out` is unused,
    so callers read the returned array.
    """
    gufuncs = _pocketfft()
    if gufuncs:
        return gufuncs[0](u, 1, out=out)
    return np.fft.rfft(u, axis=-1)


def _irfft(v, out):
    """irfft(v, nx, axis=-1) for `out` of last axis nx, as _rfft.

    1/nx is the factor np.fft.irfft hands the gufunc for its default norm.
    """
    gufuncs = _pocketfft()
    if gufuncs:
        return gufuncs[1](v, 1.0 / out.shape[-1], out=out)
    return np.fft.irfft(v, out.shape[-1], axis=-1)


def _grid(cfg):
    """(x, t, wavenumbers, the 2/3-rule mask of bins up to nx//3) of cfg."""
    nx = cfg.nx
    x = np.arange(nx) * (cfg.length / nx)
    t = np.arange(cfg.nt) * cfg.dt
    k = 2.0 * math.pi * np.fft.rfftfreq(nx, d=cfg.length / nx)
    return x, t, k, (np.arange(nx // 2 + 1) <= nx // 3).astype(float)


def _linear_row(c, orders, weights, k):
    """The symbol of -(sum of w*d^o/dx^o over orders o and weights w)/c on
    wavenumbers k, built under _march's error state: a wavenumber whose
    power overflows makes a row the march finds blown, not a warning."""
    row = np.zeros(k.size, dtype=complex)
    with np.errstate(all="ignore"):
        for order, w in zip(orders, weights):
            row += (-w / c) * (1j * k) ** order
    return row


def _advection(k, mask, n, nx, weight=None):
    """(v, u) -> the dealiased advection term -ik*mask*rfft(u^2/2).

    v is an (n, nk) state and u is irfft(v), taken here when the caller
    passes None.  With `weight`, one factor or an (n, 1) column of one per
    member, the term is weight times that, the factor folded into the
    symbol.  u, u*u and the spectrum are written into buffers of this
    kernel's own; the returned term is a new array.
    """
    # -ik*mask*X associates as (-ik*mask)*X, so forming it once keeps the
    # bits, and so does moving the exact factor 0.5 from u*u onto it
    ik = 1j * k
    ikm = 0.5 * (-ik * mask)
    if weight is not None:
        ikm = weight * ikm
    u_buf, uu_buf = np.empty((n, nx)), np.empty((n, nx))
    spec_buf = np.empty((n, k.size), dtype=complex)

    def nonlinear(v, u=None):
        if u is None:
            u = _irfft(v, u_buf)
        return ikm * _rfft(np.multiply(u, u, out=uu_buf), spec_buf)

    return nonlinear


# terms of phi_3's Taylor series taken where |z| < 1; the first one left
# out, z^21/24!, is below 1e-23 of phi_3 there
_PHI_TERMS = 21

# most bytes of one (block, *lin.shape) complex array in an ETDRK4
# coefficient build (31 step sizes of 129 wavenumbers).  numpy elides
# temporaries from 256 KiB up, which moves bits; below that each size gets
# the bits it gets alone
_BLOCK_BYTES = 1 << 16


def _phis(z):
    """(phi_1, phi_2, phi_3) at z, by Horner on phi_3's Taylor series.

    phi_k(z) = sum_n z^n/(n+k)!, so phi_2 = z*phi_3 + 1/2 and
    phi_1 = z*phi_2 + 1.
    """
    p3 = np.full_like(z, 1.0 / math.factorial(_PHI_TERMS + 2))
    for n in range(_PHI_TERMS - 2, -1, -1):
        p3 = p3 * z + 1.0 / math.factorial(n + 3)
    p2 = z * p3 + 0.5
    return z * p2 + 1.0, p2, p3


def _etdrk4_coeffs(lin, hs):
    """ETDRK4 coefficients (e^z, e^{z/2}, q, f1, f2, f3) at z = h*lin.

    One set per step size h in hs, each array of shape
    (len(hs), *lin.shape).  Where |z| >= 1 the phi-functions take the
    closed forms of Cox & Matthews (J. Comput. Phys. 2002), within 3e-14
    relative of their Taylor series for 0.75 <= |z| <= 2 in every
    direction.  Nearer z = 0 those cancel (6e-12 at 0.1), so such rows
    take the series: q = h*phi_1(z/2)/2, f1 = h*(phi_1 - 3 phi_2 + 4 phi_3),
    f2 = h*(phi_2 - 2 phi_3) and f3 = h*(4 phi_3 - phi_2), within 6e-15
    of the functions for |z| < 1.  Every operation acts on each element
    alone, so a set's bits do not depend on the other sizes in hs as long
    as no array reaches numpy's elision size (see _BLOCK_BYTES).
    """
    h = np.asarray(hs, dtype=float).reshape((-1,) + (1,) * lin.ndim)
    z = h * lin.astype(complex)
    h = np.broadcast_to(h, z.shape)
    e1, e2 = np.exp(z), np.exp(z / 2)
    q, f1, f2, f3 = (np.empty_like(z) for _ in range(4))
    far = np.abs(z) >= 1.0
    near = ~far
    zf, ef, hf = z[far], e1[far], h[far]
    zf2 = zf * zf
    hz3 = hf / (zf2 * zf)
    q[far] = hf * (e2[far] - 1.0) / zf
    f1[far] = hz3 * (-4.0 - zf + ef * (4.0 - 3.0 * zf + zf2))
    f2[far] = hz3 * (2.0 + zf + ef * (-2.0 + zf))
    f3[far] = hz3 * (-4.0 - 3.0 * zf - zf2 + ef * (4.0 - zf))
    zn, hn = z[near], h[near]
    p1, p2, p3 = _phis(zn)
    q[near] = hn * (0.5 * _phis(zn / 2)[0])
    f1[near] = hn * (p1 - 3.0 * p2 + 4.0 * p3)
    f2[near] = hn * (p2 - 2.0 * p3)
    f3[near] = hn * (4.0 * p3 - p2)
    return e1, e2, q, f1, f2, f3


def _etdrk4_steps(lin, sizes, nonlinear):
    """One ETDRK4 step per size in `sizes`, built a block at a time.

    Each block's coefficients come from one _etdrk4_coeffs call, made when
    the block's first step is drawn, so a march that stops early builds no
    block past the one holding the last step it drew.
    """
    rows = max(1, _BLOCK_BYTES // (16 * lin.size))
    sizes = iter(sizes)
    while block := list(itertools.islice(sizes, rows)):
        e1, e2, q, f1, f2, f3 = _etdrk4_coeffs(lin, block)
        # the step's 2.0*f2*X associates as (2.0*f2)*X, so folding it
        # keeps the bits
        f2x2 = 2.0 * f2
        for j in range(len(block)):
            yield _etdrk4_step(e1[j], e2[j], q[j], f1[j], f2x2[j], f3[j],
                               nonlinear)


def _etdrk4_step(e1, e2, q, f1, f2x2, f3, nonlinear):
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
    """One integrating-factor RK4 step of size h (Kassam & Trefethen, SIAM
    J. Sci. Comput. 2005), with e = e^{h*lin/2}.

    The textbook step, a = h*N(v), b = h*N(e*(v + a/2)),
    c = h*N(e*v + b/2), d = h*N(e^2*v + e*c) and
    v' = e^2*v + (e^2*a + 2e*(b + c) + d)/6, is re-associated so that h and
    the divisions sit in four coefficient arrays built here, e*h/2, e*h,
    e^2*h/6 and e*h/3, and the scalars h/2 and h/6.  With n1..n4 the
    kernel's outputs, the stage inputs are e*v + (e*h/2)*n1,
    e*v + (h/2)*n2 and e^2*v + (e*h)*n3, and
    v' = e^2*v + (e^2*h/6)*n1 + (e*h/3)*(n2 + n3) + (h/6)*n4: 15
    elementwise operations, against 20 with three divisions, and within
    round-off of the textbook form.  The stages are written into two
    buffers the step owns, sized at its first call; v' is a new array,
    and neither v, the handed u nor a kernel's result is written into.
    """
    h2, h6 = h / 2, h / 6
    e = np.exp(h * lin.astype(complex) / 2)
    e2 = e * e
    eh2, eh, e2h6, eh3 = e * h2, e * h, e2 * h6, e * (h / 3)
    bufs = None

    def step(v, u=None):
        nonlocal bufs
        if bufs is None:
            bufs = np.empty((2,) + v.shape, dtype=complex)
        w, x = bufs
        n1 = nonlinear(v, u)
        ev = np.multiply(e, v, out=w)
        np.multiply(eh2, n1, out=x)
        n2 = nonlinear(np.add(x, ev, out=x))
        np.multiply(h2, n2, out=x)
        n3 = nonlinear(np.add(x, ev, out=x))
        e2v = np.multiply(e2, v, out=w)
        np.multiply(eh, n3, out=x)
        n4 = nonlinear(np.add(x, e2v, out=x))
        out = e2h6 * n1
        out += e2v
        out += np.multiply(eh3, np.add(n2, n3, out=x), out=x)
        out += np.multiply(h6, n4, out=x)
        return out

    return step


def _make_stepper(scheme, lin, nonlinear):
    """sizes -> an iterator of `scheme`'s steps for v' = lin*v + nonlinear(v),
    one per step size in the iterable `sizes`, each built when it is drawn.

    lin is one (nk,) symbol shared by every member or an (n, nk) array of
    one row per member.  ETDRK4 builds its steps' coefficients a block of
    sizes at a time (_etdrk4_steps); IF-RK4 builds each step alone.  A
    step takes v and, optionally, u = irfft(v), which its first stage
    hands to nonlinear(v, u) in place of transforming v again.
    """
    if scheme == "etdrk4":
        return lambda sizes: _etdrk4_steps(lin, sizes, nonlinear)
    return lambda sizes: (_make_ifrk4(lin, h, nonlinear) for h in sizes)


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


def _march(schedule, n_spans, ics, skip=0):
    """Step the (n, nx) batch rfft(ics) across n_spans spans as one state.

    `schedule` yields one (m, step) per span: the span is m applications of
    step, a step of _make_stepper's.  Row 0 is ics and row j the state
    after the j-th span.  With `skip`, the first skip spans are a discarded
    transient, spans of at most h_T (_transient_spans): guarded at steps
    -skip..-1, not stored, and the state after them becomes row 0.

    Returns one outcome per member: its (samples, nx) array u, or, if a
    sample is non-finite or beyond BLOWUP_LIMIT, a BlowUpError whose .step
    is the first bad one and whose .rows are the finite u[:step] before it.
    A blown member is no longer sampled but stays in the state; every
    operation on the state acts on each row alone, so the others keep their
    bits.  The march stops once no member is left.

    Each sample is the one inverse transform of the state per span: the
    next span's first step takes it as its u = irfft(v) (see
    _make_stepper) instead of transforming the same state again.  The
    march's transforms, the first forward one and each sample, go through
    _rfft and _irfft into two buffers of its own, (n, nk) and (n, nx); the
    steps' kernels hold theirs, so a step's input is never overwritten
    before the step returns.
    """
    n, nx = ics.shape
    # one array per member, so each is freed with its own trajectory
    u = [np.empty((n_spans + 1 - skip, nx)) for _ in range(n)]
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
        state = _rfft(ics, np.empty((n, nx // 2 + 1), dtype=complex))
        phys_buf = np.empty((n, nx))
        physical = None         # irfft(state) once the last sample took it
        for i, (m, advance) in enumerate(schedule, -skip):
            if not live:
                break
            for _ in range(m):
                state, physical = advance(state, physical), None
            physical = _irfft(state, phys_buf)
            # transient samples pass through row 0 as steps -skip..-1
            j = max(i + 1, 0)
            sample(physical, j, j if i >= 0 else i)
    return out


# ---------------------------------------------------------------------------
# from an equation to data


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
    for dv in dep_vars_in(rest):
        if set(dv.index) - {"x"}:
            raise UnsupportedModelError(f"{dv.display()} on the right side "
                                        f"is not a pure spatial derivative")
    found = []
    _walk(rest, lambda e: found.append(e.name)
          if isinstance(e, IndepVar) else None)
    if found:
        raise UnsupportedModelError(
            "explicit x or t dependence on the right side is not integrable "
            "by the spectral stepper")
    return c, g, rest


# u*u_x, the one nonlinear term with a kernel of its own: under the 2/3
# rule mask*F[u*u_x] = mask*(ik/2)*F[u^2] for a state band-limited to nx/3
_ADVECTED = DepVar("u") * DepVar("u", ("x",))


def _equation_form(eq, params):
    """(c, g, linear {order: weight}, a, leftover) of eq on params.

    eq is c*e^{g t}*u_t (_time_coefficient) + the linear terms + a*u*u_x +
    the leftover; a is nonzero only when the rest of the right side is
    exactly a*u*u_x, and beside any other nonlinear term u*u_x stays in the
    leftover.  Raises UnsupportedModelError or MissingSymbolError.
    """
    eq = simplify(substitute(eq, params))
    missing = sorted(p.name for p in params_in(eq))
    if missing:
        raise MissingSymbolError(
            f"equation references unbound constants {missing}")
    c, g, rest = _time_coefficient(eq)
    coefs, leftover = project(rest, [DepVar("u", ("x",) * k)
                                     for k in range(5)])
    linear = {order: w for order, w in enumerate(coefs) if w != 0.0}
    if not leftover:
        return c, g, linear, 0.0, Const(0.0)
    leftover = simplify(Add(tuple(leftover)))
    (a,), other = project(leftover, [_ADVECTED])
    return (c, g, linear, a, Const(0.0)) if not other else \
        (c, g, linear, 0.0, leftover)


def _march_group(cfg, ics, metas, lin, nonlinear, g, scheme, sub,
                 transient=(0, 0.0)):
    """Per member b of the (n, nx) batch ics, its TrajectoryGrid with meta
    metas[b] or its BlowUpError: v' = lin*v + nonlinear(v) stepped by
    `scheme` (_make_stepper) and _march in the time s, ds = e^{-g t} dt.

    A span is -expm1(-g t)/g differenced, or, when g = 0, the one span dt
    standing for all nt - 1: np.diff(t) would differ in the last bits and
    build a step per distinct span.  Each span is cut once into
    max(dt/sub, ceil(span/sub)) equal sub-steps, at least 1 in a solve
    (sub = dt) and 4 in a rollout (sub = dt/4).  `transient` = (skip, h)
    puts skip discarded spans of h before them, one sub-step each, h at
    most the system's h_T (_transient_spans); one stepper builds both
    sizes.  Spans grow as e^{-g t}, so a march whose rescaled time
    overflows, or whose counts sum to more than _MAX_SUBSTEPS, raises
    ConfigError before its first step.
    """
    x, t, _, _ = _grid(cfg)
    with np.errstate(all="ignore"):
        spans = np.diff(-np.expm1(-g * t) / g) if g else np.array([cfg.dt])
        counts = np.maximum(round(cfg.dt / sub),
                            np.ceil(spans / sub - 1e-12))
    if not np.isfinite(counts).all():
        raise ConfigError(f"the rescaled time overflows before t = {t[-1]:g}")
    # per distinct span: how many spans it stands for, its sub-steps and
    # their size; skip is 0 when g != 0, for nkdv and rollouts take no
    # transient
    skip, h = transient
    reps = np.full(len(spans), 1 if g else cfg.nt - 1)
    total = skip + (reps * counts).sum()
    if total > _MAX_SUBSTEPS:
        raise ConfigError(f"{total:.3g} sub-steps, more than the "
                          f"{_MAX_SUBSTEPS:.0e} a march may take")
    sizes = spans / counts
    if skip:
        reps, counts, sizes = np.r_[skip, reps], np.r_[1, counts], \
            np.r_[h, sizes]
    steps = _make_stepper(scheme, lin, nonlinear)(sizes)
    schedule = itertools.chain.from_iterable(
        itertools.repeat((m, step), r)
        for r, m, step in zip(reps, counts.astype(int), steps))
    outcomes = _march(schedule, skip + cfg.nt - 1, ics, skip)
    return [u if isinstance(u, BlowUpError) else TrajectoryGrid(x, t, u, m)
            for u, m in zip(outcomes, metas)]


def _transient_spans(cfg):
    """(skip, h): cfg's transient as skip equal spans of h, at most its
    system's transient step h_T (_STANDARD; dt where that is None).

    A transient within 1e-9 spans of a whole number of h_T is that many
    spans of h_T itself, so a system stepping its transient by dt keeps
    dt's bits; any other is ceil(transient/h_T) spans of transient/skip.
    """
    h = _STANDARD[cfg.system][3] or cfg.dt
    spans = cfg.transient / h
    if abs(spans - round(spans)) <= 1e-9:
        return round(spans), h
    skip = math.ceil(spans)
    return skip, cfg.transient / skip


def solve_pde(cfg: SolverConfig, ics, metas=None):
    """Solve cfg's system, its equation marched by its scheme in steps of
    at most dt (_STANDARD) after a transient in steps of at most h_T
    (_transient_spans), from each row of the (n, nx) batch ics.

    Returns, per member, its TrajectoryGrid or its BlowUpError (.step and
    the finite .rows), bit-identical to a batch of that member alone.
    `metas` holds one dict (or None) per member, merged into its meta.
    """
    ics = _batch(ics, cfg.nx)
    metas = [None] * len(ics) if metas is None else list(metas)
    if len(metas) != len(ics):
        raise ConfigError(f"{len(metas)} metas for {len(ics)} ics")
    equation, scheme, _, _ = _STANDARD[cfg.system]
    c, g, linear, a, _ = _equation_form(parse(equation, SPACE), cfg.params)
    _, _, k, mask = _grid(cfg)
    transient = _transient_spans(cfg)
    last = {"transient": cfg.transient} if transient[0] else {}
    out_metas = [{"system": cfg.system, "params": dict(cfg.params),
                  "noise_sigma": 0.0, **(m or {}), **last} for m in metas]
    return _march_group(
        cfg, ics, out_metas, _linear_row(c, linear, linear.values(), k),
        _advection(k, mask, len(ics), cfg.nx, a / c), g, scheme, cfg.dt,
        transient)


# ---------------------------------------------------------------------------
# integrating discovered models


def _lift_consts(e, consts):
    """e with each Const, depth first, replaced by Param("_c<i>"), the
    i-th constant's value appended to consts."""
    def lift(n):
        if not isinstance(n, Const):
            return n
        consts.append(n.value)
        return Param(f"_c{len(consts) - 1}")

    return _map_leaves(e, lift)


def _rollout_form(model, cfg):
    """(structure, c, linear weights, leftover constants) of a model.

    Its equation on cfg's params is split by _equation_form.  The structure
    is (g, the linear orders, the kernel, "advection" for a lone a*u*u_x
    with the one constant a, else "compiled", and the leftover with its
    constants lifted by _lift_consts, or None when it is zero or advected);
    models that share it march as one group.
    """
    c, g, linear, a, leftover = _equation_form(model_to_equation(model),
                                               cfg.params)
    consts = [a] if a else []
    shape = None if is_zero(leftover) else _lift_consts(leftover, consts)
    kernel = "advection" if a else "compiled"
    return ((g, tuple(linear), kernel, shape), c, tuple(linear.values()),
            consts)


def _leftover_term(shape, consts, scale, k, mask, nx):
    """(v, u) -> scale*mask*rfft(shape), each member with its own constants.

    This is the kernel of every leftover but a lone a*u*u_x, which steps
    through _advection instead.  consts maps each lifted constant's name to
    its (n, 1) column of member values and scale is the (n, 1) column of
    -1/c.  shape is compiled once; each call evaluates it under _march's
    error state.  u and its derivatives come from one inverse transform of
    the stacked [v, (ik)^o v ...] into a stacked buffer of fields; a
    u = irfft(v) passed in leaves only the derivative rows to transform.
    The forward transform goes into a third buffer, and the returned term
    is a new array.
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
    n = scale.shape[0]
    stacked = np.empty((len(names), n, k.size), dtype=complex)
    fields = np.empty((len(names), n, nx))
    spec_buf = np.empty((n, k.size), dtype=complex)

    def nonlinear(v, u=None):
        np.multiply(ikp, v, out=stacked[1:])
        if u is None:
            stacked[0] = v
            binding.update(zip(names, _irfft(stacked, fields)))
        else:
            binding["u"] = u
            if needed:
                binding.update(zip(names[1:],
                                   _irfft(stacked[1:], fields[1:])))
        return sm * _rfft(rhs(binding), spec_buf)

    return nonlinear


def integrate_model(models, ics, cfg: SolverConfig):
    """Integrate discovered models LHS = W*Theta on cfg's grid.

    Member b integrates models[b] from row b of the (n, nx) batch ics, by
    integrating-factor RK4 at dt/4 sub-steps (at least 4 per span), its
    linear symbol masked by the 2/3 rule.  Members whose models share one
    structure (_rollout_form), kernel included, march as one state, each
    with its own coefficients.

    Returns, per member, its TrajectoryGrid, its BlowUpError (.step and the
    finite .rows), or the UnsupportedModelError or MissingSymbolError of a
    model that cannot be rolled out, its march's refusal (_march_group)
    included; each is the outcome of a batch of that member alone, bit for
    bit.
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

    _, _, k, mask = _grid(cfg)
    for (g, orders, kernel, shape), members in groups.items():
        group = [forms[id(models[b])][1:] for b in members]
        # du/ds = -(rest)/c in the rescaled time s with ds = e^{-g t} dt;
        # a coefficient that overflows a symbol blows up at step 1, unwarned
        with np.errstate(all="ignore"):
            lin = np.array([_linear_row(c, orders, weights, k)
                            for c, weights, _ in group])
            lin *= mask
            scale = np.array([[-1.0 / c] for c, _, _ in group])
            consts = {f"_c{i}": np.array([[f[2][i]] for f in group])
                      for i in range(len(group[0][2]))}
            if kernel == "advection":
                # -(a/c)*u*u_x is a/c times the generators' -u*u_x
                nonlinear = _advection(k, mask, len(members), cfg.nx,
                                       -scale * consts["_c0"])
            else:
                nonlinear = _leftover_term(shape, consts, scale, k, mask,
                                           cfg.nx)
        metas = [{"system": cfg.system, "kind": "model-integration",
                  "params": dict(cfg.params), "noise_sigma": 0.0}
                 for _ in members]
        try:
            outcomes = _march_group(cfg, ics[members], metas, lin,
                                    nonlinear, g, "rk4-spectral",
                                    cfg.dt / 4.0)
        except ConfigError as err:
            outcomes = [UnsupportedModelError(str(err))] * len(members)
        for b, outcome in zip(members, outcomes):
            out[b] = outcome
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
