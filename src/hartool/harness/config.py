"""Experiment configuration: JSON schema, defaults, and hypothesis validation.

A config names one inequality of the verification catalog, the grids to run
it on, the analytic parameters, and descriptors for the kernel, gauges,
scale weights, cube family and test-function suites.  Validation rejects
exactly the configs that violate a stated hypothesis, with the failed
hypothesis named in the error message.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial

from ..gauges import (ConjugateGauge, LinearGauge, YoungFunction, modulus_from_json,
                      morrey_weight_from_json, young_from_json)
from ..geometry import CubeFamily, Grid
from ..operators import KernelSpec, kernel_from_json
from .suite import draw_suite_params

__all__ = ["ConfigError", "DENSE_KERNEL_BUDGET_BYTES", "ExperimentConfig", "INEQUALITY_CATALOG",
           "default_config"]


class ConfigError(ValueError):
    """A config violates a stated hypothesis; the message names it."""


# Largest dense kernel matrix, (N^dim)^2 float64 entries, a config may ask
# for: 2D N=64 needs 128 MiB and passes, 2D N=128 needs 2 GiB and does not.
DENSE_KERNEL_BUDGET_BYTES = 512 * 2**20


# The fields JSON holds as lists and a config as tuples.
TUPLE_FIELDS = ("grid_sizes", "origin", "t_scan", "operators")

# The fields every run reads: the grids, the seed, the suite and the cube family.
SHARED_FIELDS = ("inequality_id", "dim", "grid_sizes", "side_length", "origin", "seed",
                 "stability_factor", "threads", "family", "suite")

# Per id, "params" lists every other config field its runner reads; it is the
# one declaration of an id's inputs: whether a run builds the kernel and the
# weight suite, and which hypotheses validate() checks, follow from it.
# "conjugated" names the gauge fields whose conjugate the runner evaluates.
# "defaults" holds the values of the id's desk-scale config that differ from
# the dataclass defaults; default_config() applies them and nothing else.
INEQUALITY_CATALOG: dict[str, dict] = {
    "eq12": {
        "summary": "pointwise domination of the fractional maximal function by "
                   "the fractional integral of |f|, with explicit constant",
        "params": ["gamma", "kernel"],
    },
    "thm21": {
        "summary": "local sharp maximal of the kernel transform bounded by the "
                   "order-r fractional maximal function",
        "params": ["gamma", "r", "s", "kernel"],
        "defaults": {"grid_sizes": (128, 256)},
    },
    "thm22": {
        "summary": "local sharp maximal of the transform bounded via the "
                   "conjugate-gauge fractional maximal function",
        "params": ["gamma", "s", "kernel", "gauge_a"],
        "conjugated": ["gauge_a"],
        "defaults": {"family": {"kind": "dyadic"}, "gauge_a": {"family": "power", "p": 2.0},
                     "suite": {"kind": "mixed", "count": 6}},
    },
    "thm23": {
        "summary": "local sharp maximal bound for products of "
                   "invertible-coefficient power kernels",
        "params": ["gamma", "s", "kernel"],
        "defaults": {"grid_sizes": (128, 256), "suite": {"kind": "compact", "count": 6}},
    },
    "thm31": {
        "summary": "weighted local mean of Phi(|Tf - median|) bounded by the "
                   "weighted mean of Phi of the fractional maximal function",
        "params": ["gamma", "r", "kernel", "gauge_phi", "weight_pair", "weight_order", "t_scan",
                   "weight_suite"],
        "defaults": {"grid_sizes": (128, 256), "suite": {"kind": "mixed", "count": 10},
                     "weight_suite": {"kind": "mixed_weights", "count": 10}},
    },
    "eq33": {
        "summary": "global weighted Phi-integral of |Tf| bounded when the "
                   "medians of Tf decay on growing cubes",
        "params": ["gamma", "r", "kernel", "gauge_phi", "weight_pair", "weight_order", "t_scan",
                   "weight_suite"],
        "defaults": {"suite": {"kind": "compact", "count": 6}},
    },
    "lem41": {
        "summary": "sharp median of Tf on random cubes bounded by the "
                   "lambda-weighted dilate sums of f",
        "params": ["gamma", "r", "s", "kernel", "lambda_source", "omega", "gauge_a", "c_n",
                   "cube_samples"],
        "defaults": {"suite": {"kind": "compact", "count": 5}},
    },
    "eq45_check": {
        "summary": "finiteness and refinement stability of the two-weight bump product",
        "params": ["gamma", "r", "p", "q", "gauge_a", "gauge_b", "weight_suite"],
        "defaults": {"grid_sizes": (32, 64), "gauge_a": {"family": "power", "p": 5.0},
                     "gauge_b": {"family": "power", "p": 3.0}},
    },
    "thm42": {
        "summary": "two-weight strong bound: weighted q-norm of Tf by the "
                   "weighted p-norm of f under the bump condition",
        "params": ["gamma", "r", "p", "q", "alpha1", "alpha2", "kernel", "gauge_a", "gauge_b",
                   "omega", "weight_pair", "weight_order", "t_scan", "weight_suite"],
        "conjugated": ["gauge_a", "gauge_b"],
        "defaults": {"gamma": 0.2, "gauge_a": {"family": "power", "p": 5.0},
                     "gauge_b": {"family": "power", "p": 3.0},
                     "suite": {"kind": "compact", "count": 6}, "weight_pair": {"mode": "unit"}},
    },
    "prop51": {
        "summary": "localization gap for the fractional maximal operator on sampled cubes",
        "params": ["gamma", "p", "c_n", "d_n", "cube_samples"],
        "defaults": {"gamma": 0.25, "suite": {"kind": "mixed", "count": 6}, "cube_samples": 8},
    },
    "thm52": {
        "summary": "Morrey-to-Morrey boundedness of the fractional maximal operator",
        "params": ["gamma", "p", "morrey_phi", "morrey_psi"],
        "defaults": {"grid_sizes": (128, 256), "gamma": 0.25,
                     "morrey_phi": {"family": "power_law", "sigma": -0.4},
                     "morrey_psi": {"family": "power_law", "sigma": -0.15}},
    },
    "thm53": {
        "summary": "Morrey boundedness of sublinear operators dominated by the "
                   "fractional kernel",
        "params": ["gamma", "p", "morrey_phi", "morrey_psi", "operators", "kernel"],
        "defaults": {"grid_sizes": (32, 64), "gamma": 0.25,
                     "morrey_phi": {"family": "power_law", "sigma": -0.4},
                     "morrey_psi": {"family": "power_law", "sigma": -0.15},
                     "suite": {"kind": "mixed", "count": 6}},
    },
    "eq19": {
        "summary": "Campanato seminorm of Tf bounded by the Morrey norm of the "
                   "fractional maximal function",
        "params": ["gamma", "q", "kernel", "morrey_psi"],
        "defaults": {"gamma": 0.25, "q": 2.0, "morrey_psi": {"family": "power_law", "sigma": -0.15},
                     "suite": {"kind": "compact", "count": 6}},
    },
}

# The gauge a null gauge field stands for where the id's "defaults" set none.
NULL_GAUGES = {"gauge_a": {"family": "power", "p": 2.0}, "gauge_b": {"family": "power", "p": 3.0},
               "gauge_phi": {"family": "linear", "r": 1.0}}


@dataclass
class ExperimentConfig:
    inequality_id: str
    dim: int = 1
    grid_sizes: tuple[int, ...] = (64, 128)
    side_length: float = 1.0
    origin: tuple[float, ...] | None = None
    seed: int = 7
    stability_factor: float = 2.0
    threads: int = 1  # validated (>= 1) and read by no runner: runs are serial

    gamma: float = 0.5
    r: float = 1.0
    s: float = 0.5
    p: float = 2.0
    q: float = 4.0
    beta: float = 1.0  # read by no inequality; validate() admits only null or 1.0
    alpha: float | None = None  # likewise
    alpha1: float | None = None
    alpha2: float | None = None
    weight_order: float = 1.0
    c_n: float | None = None
    d_n: float | None = None
    t_scan: tuple[float, ...] = (0.55, 0.65, 0.75, 0.85)
    cube_samples: int = 20
    lambda_source: str = "omega"
    operators: tuple[str, ...] = ("maximal", "riesz")

    kernel: dict | None = None
    gauge_a: dict | None = None
    gauge_b: dict | None = None
    gauge_phi: dict | None = None
    omega: dict | None = None
    morrey_phi: dict | None = None
    morrey_psi: dict | None = None
    family: dict = field(default_factory=lambda: {"kind": "all"})
    suite: dict = field(default_factory=lambda: {"kind": "mixed", "count": 8})
    weight_suite: dict = field(default_factory=lambda: {"kind": "mixed_weights", "count": 4})
    weight_pair: dict = field(default_factory=lambda: {"mode": "maximal"})

    # ------------------------------------------------------------------ io

    @classmethod
    def from_json(cls, data: dict | str) -> "ExperimentConfig":
        if isinstance(data, str):
            data = json.loads(data)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        for key in TUPLE_FIELDS:
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_json_dict(self) -> dict:
        out = asdict(self)
        for key in TUPLE_FIELDS:
            if out[key] is not None:
                out[key] = list(out[key])
        return out

    # ------------------------------------------------------------- resolution

    def resolved_origin(self) -> tuple[float, ...]:
        if self.origin is not None:
            return tuple(self.origin)
        if self.inequality_id == "thm23":
            # centered domain so the coefficient maps send it into itself
            return (-self.side_length / 2.0,) * self.dim
        return (0.0,) * self.dim

    def grid_for(self, n: int) -> Grid:
        return Grid(self.dim, n, self.side_length, self.resolved_origin())

    def family_for(self, grid: Grid) -> CubeFamily:
        return CubeFamily.from_json(grid, self.family)

    def resolved_c_n(self) -> float:
        return self.c_n if self.c_n is not None else 2.0 * math.sqrt(self.dim)

    def resolved_d_n(self) -> float:
        return self.d_n if self.d_n is not None else 2.0 * math.sqrt(self.dim)

    def resolved_kernel(self) -> KernelSpec:
        """The run's kernel, whose values shared with the run come from the config.

        The descriptor is `kernel`, else thm23's homogeneous pair, else the
        Riesz kernel.  Its `dim` and `gamma` are the config's; a Dini kernel's
        `omega` is `resolved_omega()`, the modulus lambda is built from, and its
        `sphere.dim` defaults to `dim`.  A spelled key whose value differs from
        the config's raises a ConfigError naming the key and both values."""
        if self.kernel is not None:
            data = dict(self.kernel)
        elif self.inequality_id == "thm23":
            data = {"variant": "homogeneous",
                    "coeffs": [1.0, -1.0] if self.dim == 1 else [[[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]],
                    "exponents": [self.dim * (1 - self.gamma) / 2.0] * 2}
        else:
            data = {"variant": "riesz"}
        shared = {"dim": self.dim, "gamma": self.gamma}
        if data.get("variant") == "dini":
            shared["omega"] = self.resolved_omega().to_json()
            data["sphere"] = {"dim": self.dim, **data.get("sphere", {})}
        for key, value in shared.items():
            if data.setdefault(key, value) != value:
                raise ConfigError(f"kernel {key} {data[key]!r} differs from the config's {value!r}")
        return kernel_from_json(data)

    def resolved_gauge(self, slot: str) -> YoungFunction:
        """The slot's gauge; a null slot takes the id's catalog default, else NULL_GAUGES."""
        data = getattr(self, slot)
        if data is None:
            defaults = INEQUALITY_CATALOG[self.inequality_id].get("defaults", {})
            data = defaults.get(slot, NULL_GAUGES[slot])
        return young_from_json(data)

    def resolved_omega(self):
        if self.omega is not None:
            return modulus_from_json(self.omega)
        return modulus_from_json({"family": "holder", "delta": 1.0})

    def resolved_morrey(self, slot: str):
        data = getattr(self, slot)
        if data is not None:
            return morrey_weight_from_json(data)
        ngamma = self.dim * self.gamma
        if slot == "morrey_phi":
            return morrey_weight_from_json({"family": "power_law", "sigma": -0.15 - ngamma})
        return morrey_weight_from_json({"family": "power_law", "sigma": -0.15})

    def morrey_exponent_pair(self) -> tuple[float, float]:
        """(p, q) with 1/q = 1/p - gamma for the matched power gauges."""
        q = 1.0 / (1.0 / self.p - self.gamma)
        return self.p, q

    @property
    def weight_pair_mode(self) -> str:
        """How v is formed from w: the maximal function of order
        `weight_order` (the default), w itself, or 1."""
        return self.weight_pair.get("mode", "maximal")

    def resolved_alphas(self) -> tuple[float, float, float]:
        alpha = 1.0 / self.p - 1.0 / self.q
        a1 = self.alpha1 if self.alpha1 is not None else alpha / 2.0
        a2 = self.alpha2 if self.alpha2 is not None else alpha - a1
        return alpha, a1, a2

    # ------------------------------------------------------------- validation

    def validate(self) -> None:
        if self.inequality_id not in INEQUALITY_CATALOG:
            raise ConfigError(f"unknown inequality id {self.inequality_id!r}; "
                              f"known: {sorted(INEQUALITY_CATALOG)}")
        if self.dim not in (1, 2):
            raise ConfigError("hypothesis violated: dim must be 1 or 2")
        if not self.grid_sizes:
            raise ConfigError("hypothesis violated: at least one grid size required")
        for n in self.grid_sizes:
            if type(n) is not int or n < 2 or (n & (n - 1)):
                raise ConfigError(f"hypothesis violated: grid_sizes must be integer powers of 2, "
                                  f"got {n!r}")
        if list(self.grid_sizes) != sorted(self.grid_sizes):
            raise ConfigError("hypothesis violated: grid sizes must be ascending")
        if not self.stability_factor >= 1.0:
            raise ConfigError("hypothesis violated: stability factor must be >= 1")
        if self.threads < 1:
            raise ConfigError("hypothesis violated: threads must be >= 1")
        if not 0 < self.s <= 0.5:
            raise ConfigError("hypothesis violated: s must lie in (0, 1/2]")
        if not self.r >= 1:
            raise ConfigError("hypothesis violated: r must be >= 1")
        builds_kernel = self.builds_kernel()
        for n in self.grid_sizes if builds_kernel else ():
            nbytes = (n**self.dim) ** 2 * 8
            if nbytes > DENSE_KERNEL_BUDGET_BYTES:
                raise ConfigError(
                    f"resource limit: the dense kernel matrix of the {self.dim}D grid N={n} "
                    f"needs {nbytes} bytes ({nbytes / 2**20:.0f} MiB), over the "
                    f"DENSE_KERNEL_BUDGET_BYTES budget of {DENSE_KERNEL_BUDGET_BYTES} bytes")
        if self.inequality_id == "thm53":  # ahead of the gamma range: its message says what to drop
            for op in self.operators:
                if op not in ("maximal", "riesz"):
                    raise ConfigError(f"hypothesis violated: unknown operator {op!r} for thm53")
            if "riesz" in self.operators and not self.gamma > 0:
                raise ConfigError("hypothesis violated: the fractional integral operator "
                                  "requires gamma > 0 (drop it from operators for gamma = 0)")
        if builds_kernel and not 0 < self.gamma < 1:
            raise ConfigError("hypothesis violated: gamma must lie in (0, 1)")
        if not builds_kernel and not 0 <= self.gamma < 1:
            raise ConfigError("hypothesis violated: gamma must lie in [0, 1)")
        for t in self.t_scan:
            if not 0.5 < t < 1:
                raise ConfigError("hypothesis violated: median levels t must lie in (1/2, 1)")
        if self.lambda_source not in ("omega", "hormander"):
            raise ConfigError("hypothesis violated: lambda_source must be omega or hormander")
        if self.inequality_id in ("thm42", "eq45_check") and not self.r < self.p < self.q:
            raise ConfigError("hypothesis violated: the two-weight bump product of "
                              f"{self.inequality_id} needs r < p < q, got "
                              f"r={self.r}, p={self.p}, q={self.q}")
        if self.inequality_id == "thm42":
            if not self.gamma * self.r < 1:
                raise ConfigError("hypothesis violated: thm42 needs gamma * r < 1")
            alpha, a1, a2 = self.resolved_alphas()
            if a1 < 0 or a2 < 0:
                raise ConfigError("hypothesis violated: alpha1, alpha2 must be nonnegative")
            if abs((a1 + a2) - alpha) > 1e-12:
                raise ConfigError("hypothesis violated: alpha1 + alpha2 must equal 1/p - 1/q")
        if self.inequality_id in ("prop51", "thm52", "thm53"):
            if not 1.0 / self.p - self.gamma > 0:
                raise ConfigError("hypothesis violated: matched-exponent relation needs "
                                  "gamma < 1/p (so that 1/q = 1/p - gamma is positive)")
        if self.inequality_id == "eq19" and not self.q > 1:
            raise ConfigError("hypothesis violated: eq19 needs a gauge exponent q > 1")
        if not isinstance(self.weight_pair, dict):
            raise ConfigError("bad descriptor weight_pair: it must be an object such as "
                              f'{{"mode": "maximal"}}, got {self.weight_pair!r}')
        mode = self.weight_pair_mode
        if mode == "condition_f":
            raise ConfigError("weight_pair mode condition_f requires explicit weight pairs; "
                              "use mode maximal, same, or unit here")
        if mode not in ("maximal", "same", "unit"):
            raise ConfigError("hypothesis violated: weight_pair mode must be one of "
                              "maximal, same, unit")
        # every descriptor must construct; a conjugated gauge must also be
        # convex, which evaluating its conjugate once checks (a non-power
        # base's table is cached, so the run reuses it)
        grid = lambda: self.grid_for(self.grid_sizes[0])
        conjugate = lambda g: ConjugateGauge(self.resolved_gauge(g)).value(1.0)
        builders = [("side_length/origin", grid),
                    ("family", lambda: self.family_for(grid())),
                    ("suite", lambda: draw_suite_params(self.suite, self.dim, self.seed)),
                    ("weight_suite", lambda: draw_suite_params(self.weight_suite, self.dim, self.seed)),
                    ("omega", self.resolved_omega)]
        builders += [(g, partial(self.resolved_gauge, g)) for g in ("gauge_a", "gauge_b", "gauge_phi")]
        builders += [(m, partial(self.resolved_morrey, m)) for m in ("morrey_phi", "morrey_psi")]
        builders += [(g, partial(conjugate, g))
                     for g in INEQUALITY_CATALOG[self.inequality_id].get("conjugated", ())]
        if builds_kernel:
            builders.append(("kernel", self.resolved_kernel))
        builders.append(("weight_order", lambda: LinearGauge(self.weight_order)))
        for name, build in builders:
            try:
                build()
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ConfigError(f"bad descriptor {name}: {exc}") from exc
        if self.inequality_id == "thm23":
            if self.resolved_kernel().to_json().get("variant") != "homogeneous":
                raise ConfigError("hypothesis violated: thm23 requires a homogeneous kernel")
        # inputs that change no report; checked last, so that a config with
        # another fault keeps that fault's message
        unknown = sorted(set(self.weight_pair) - {"mode"})
        if unknown:
            raise ConfigError(f"bad descriptor weight_pair: unknown keys {unknown}; it takes "
                              "only mode (the maximal pair's order is weight_order)")
        for name in ("alpha", "beta"):
            if getattr(self, name) not in (None, 1.0):
                raise ConfigError(f"bad field {name}: no inequality reads alpha or beta; "
                                  "leave it null or 1.0")
        params = INEQUALITY_CATALOG[self.inequality_id]["params"]
        if "cube_samples" in params and (type(self.cube_samples) is not int
                                         or self.cube_samples < 1):
            raise ConfigError("bad field cube_samples: it must be an integer >= 1 (with no "
                              f"sampled cube the run checks nothing), got {self.cube_samples!r}")
        for name in ("t_scan", "operators"):
            if name in params and not getattr(self, name):
                raise ConfigError(f"bad field {name}: an empty list checks nothing")

    def builds_kernel(self) -> bool:
        """True when a run applies the kernel: the id reads `kernel` and, for an
        id that takes an operator list, the fractional integral is among them."""
        params = INEQUALITY_CATALOG[self.inequality_id]["params"]
        return "kernel" in params and ("operators" not in params or "riesz" in self.operators)


def default_config(inequality_id: str, **overrides) -> ExperimentConfig:
    """A runnable config for the given inequality with its catalog defaults."""
    defaults = INEQUALITY_CATALOG.get(inequality_id, {}).get("defaults", {})
    cfg = ExperimentConfig(**{"inequality_id": inequality_id, **copy.deepcopy(defaults),
                              **overrides})
    cfg.validate()
    return cfg
