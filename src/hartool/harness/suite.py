"""Deterministic test-function and weight suites.

Parameters are drawn from the seed first, independent of any grid, and
then realized on a given grid; this is what makes empirical constants
comparable across refinements of the same suite.  Weight generators
produce strictly positive samples wherever an inverse power is taken.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Grid, SampledFunction

__all__ = ["draw_suite_params", "realize", "generate_suite"]

_MIXED = ("indicator", "bump", "step", "oscillating")
_COMPACT = ("bump", "indicator_compact", "oscillating")
_WEIGHTS = ("power_weight", "noise_weight")

_DIST_FLOOR = 1e-4  # fraction of the side length; grid independent


def _draw_one(kind: str, dim: int, rng: np.random.Generator) -> dict:
    if kind == "indicator":
        lo = rng.uniform(0.05, 0.55, size=dim)
        wid = rng.uniform(0.15, 0.40, size=dim)
        return {"kind": kind, "lo": lo.tolist(), "hi": (lo + wid).tolist()}
    if kind == "indicator_compact":
        lo = rng.uniform(0.28, 0.52, size=dim)
        wid = rng.uniform(0.08, 0.20, size=dim)
        return {"kind": "indicator", "lo": lo.tolist(), "hi": (lo + wid).tolist()}
    if kind == "step":
        pieces = int(rng.integers(3, 9))
        cuts = (np.arange(1, pieces) + 0.7 * rng.random(pieces - 1)) / pieces
        if dim == 1:
            return {"kind": kind, "cuts": cuts.tolist(),
                    "levels": rng.uniform(-2, 2, size=pieces).tolist()}
        rects = []
        for _ in range(pieces - 1):
            lo = rng.uniform(0.0, 0.7, size=dim)
            wid = rng.uniform(0.15, 0.3, size=dim)
            rects.append({"lo": lo.tolist(), "hi": (lo + wid).tolist(),
                          "amp": float(rng.uniform(-2, 2))})
        return {"kind": "rects", "base": float(rng.uniform(-1, 1)), "rects": rects}
    if kind == "bump":
        return {"kind": kind,
                "center": rng.uniform(0.30, 0.70, size=dim).tolist(),
                "width": float(rng.uniform(0.05, 0.15)),
                "amp": float(rng.uniform(0.5, 2.0))}
    if kind == "oscillating":
        return {"kind": kind,
                "center": rng.uniform(0.35, 0.65, size=dim).tolist(),
                "width": float(rng.uniform(0.06, 0.15)),
                "amp": float(rng.uniform(0.5, 2.0)),
                "freq": int(rng.integers(2, 7)),
                "phase": float(rng.random())}
    if kind == "power_weight":
        a = float(rng.uniform(0.1, 0.45)) * (1 if rng.random() < 0.5 else -1)
        return {"kind": kind, "center": rng.uniform(0.30, 0.70, size=dim).tolist(),
                "exponent": a}
    if kind == "noise_weight":
        modes = 4
        return {"kind": kind,
                "amps": (rng.normal(0.0, 0.4, size=(dim, modes)) / np.arange(1, modes + 1)).tolist(),
                "phases": rng.uniform(0, 2 * np.pi, size=(dim, modes)).tolist()}
    raise ValueError(f"unknown suite kind {kind!r}")


def _kind_cycle(kind: str) -> tuple[str, ...]:
    if kind == "mixed":
        return _MIXED
    if kind == "compact":
        return _COMPACT
    if kind == "mixed_weights":
        return _WEIGHTS
    return (kind,)


def draw_suite_params(descriptor: dict, dim: int, seed: int) -> list[dict]:
    kinds = _kind_cycle(descriptor.get("kind", "mixed"))
    count = descriptor.get("count", 8)
    if type(count) is not int or count < 1:
        raise ValueError(f"suite count must be an integer >= 1, got {count!r}")
    rng = np.random.default_rng(seed)
    return [_draw_one(kinds[i % len(kinds)], dim, rng) for i in range(count)]


def realize(params: dict, grid: Grid, name: str = "") -> SampledFunction:
    pts = grid.cell_centers()  # (ncells, dim), physical coordinates
    L = grid.side_length
    frac = (pts - np.asarray(grid.origin)) / L  # in [0, 1]^dim
    kind = params["kind"]
    if kind == "indicator":
        lo = np.asarray(params["lo"])
        hi = np.asarray(params["hi"])
        vals = np.all((frac >= lo) & (frac < hi), axis=1).astype(float)
    elif kind == "step":
        cuts = np.asarray(params["cuts"])
        levels = np.asarray(params["levels"])
        vals = levels[np.searchsorted(cuts, frac[:, 0], side="right")]
    elif kind == "rects":
        vals = np.full(pts.shape[0], params["base"])
        for rect in params["rects"]:
            inside = np.all((frac >= np.asarray(rect["lo"])) & (frac < np.asarray(rect["hi"])), axis=1)
            vals = vals + rect["amp"] * inside
    elif kind == "bump":
        c = np.asarray(params["center"])
        r2 = np.sum((frac - c) ** 2, axis=1)
        vals = params["amp"] * np.exp(-r2 / (2.0 * params["width"] ** 2))
    elif kind == "oscillating":
        c = np.asarray(params["center"])
        r2 = np.sum((frac - c) ** 2, axis=1)
        bump = params["amp"] * np.exp(-r2 / (2.0 * params["width"] ** 2))
        phase = np.sin(np.pi * params["freq"] * (frac[:, 0] - params["phase"]))
        vals = bump * np.where(phase >= 0, 1.0, -1.0)
    elif kind == "power_weight":
        c = np.asarray(params["center"])
        dist = np.sqrt(np.sum((frac - c) ** 2, axis=1))
        vals = (np.maximum(dist, _DIST_FLOOR) * L) ** params["exponent"]
    elif kind == "noise_weight":
        amps = np.asarray(params["amps"])
        phases = np.asarray(params["phases"])
        field = np.zeros(pts.shape[0])
        for d in range(grid.dim):
            for j in range(amps.shape[1]):
                field += amps[d, j] * np.cos(2 * np.pi * (j + 1) * frac[:, d] + phases[d, j])
        vals = np.exp(np.clip(field, -2.5, 2.5))
    else:
        raise ValueError(f"unknown suite kind {kind!r}")
    return SampledFunction(grid, vals.reshape(grid.shape), name=name)


def generate_suite(descriptor: dict, grid: Grid, seed: int) -> list[SampledFunction]:
    """Realize the suite described by the descriptor on the grid.

    Identical (descriptor, seed) pairs give identical parameter draws on
    every grid, so refinement studies see the same underlying functions."""
    params = draw_suite_params(descriptor, grid.dim, seed)
    return [realize(p, grid, name=f"{p['kind']}#{i}") for i, p in enumerate(params)]
