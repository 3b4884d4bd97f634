"""Run configuration: JSON schema, validation, and structure builders.

A configuration is a single JSON document.  Unknown keys anywhere in the
document are hard errors — a misspelled physics knob must never be silently
ignored.  The full schema (all keys optional unless stated):

    {
      "dimension": int (required),
      "domain": {
        "type": "euclidean" | "riemannian" | "randers" | "perturbed" | "custom",
        "chart": {"type": "torus", "periods": [..]} |
                 {"type": "box", "bounds": [[lo, hi], ..]},
        "matrix": [[expr, ..], ..],      # riemannian / perturbed base
        "alpha":  [[expr, ..], ..],      # randers
        "beta":   [expr, ..],            # randers
        "b": expr, "scale": float,       # perturbed
        "f": expr                        # custom
      },
      "codomain": {"type": "euclidean" | "sphere" | "custom",
                   "dimension": int, "radius": float, "matrix": [[expr, ..], ..]},
      "map": {"components": [expr, ..]},
      "variation": {"components": [expr, ..]},   # may use eps1, eps2
      "sections": {"X": [expr, ..], "Y": [expr, ..], "f": expr},
      "perturbation": {"b": expr, "a": [expr, ..], "c_grid": [floats]},
      "quadrature": {"x_resolution": int, "y_samples": int, "seed": int,
                     "r_min": float, "safety": float, "workers": int},
      "tolerances": {<name>: float, ..}
    }
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError
from .finsler import BoxChart, FinslerStructure, TorusChart
from .identity import DEFAULT_C_GRID, PerturbationSetup
from .maps import PullbackSection, SmoothMap, VariationFamily
from .quadrature import QuadratureSpec
from .riemann import RiemannStructure

_TOP_KEYS = {"dimension", "domain", "codomain", "map", "variation", "sections",
             "perturbation", "quadrature", "tolerances"}
_DOMAIN_KEYS = {"type", "chart", "matrix", "alpha", "beta", "b", "scale", "f"}
_CHART_KEYS = {"type", "periods", "bounds"}
_CODOMAIN_KEYS = {"type", "dimension", "radius", "matrix"}
_MAP_KEYS = {"components"}
_SECTION_KEYS = {"X", "Y", "f"}
_PERTURBATION_KEYS = {"b", "a", "c_grid"}
_QUAD_KEYS = {"x_resolution", "y_samples", "seed", "r_min", "safety", "workers"}

DEFAULT_TOLERANCES = {
    "harmonic": 1e-8,
    "biharmonic": 1e-8,
    "identity_routes": 1e-8,
    "structural": 1e-7,
    "weitzenbock": 1e-6,
    "first_variation_rel": 1e-3,
    "second_variation_rel": 1e-3,
    "slope_tau_low": 0.9, "slope_tau_high": 1.1,
    "slope_tau2_low": 1.8, "slope_tau2_high": 2.2,
}


def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _number(value, kind, where: str):
    """`kind(value)`, or a ConfigError naming the key `where` of a mistyped or
    non-finite value (JSON's `NaN` and `Infinity` included)."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or kind is float and not math.isfinite(number):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    return number


def _numbers(values, kind, where: str, length=None) -> tuple:
    """A list of config numbers, of `length` entries when that is given."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        raise ConfigError(f"{where} must be a list of {length or 'some'} numbers, got {values!r}")
    return tuple(_number(v, kind, f"{where}[{i}]") for i, v in enumerate(values))


class RunConfig:
    """Validated run configuration with lazy structure builders."""

    def __init__(self, data: dict):
        _require_keys(data, _TOP_KEYS, "top level")
        if "dimension" not in data:
            raise ConfigError("top level: missing required key 'dimension'")
        dimension = data["dimension"]
        if isinstance(dimension, bool) or not isinstance(dimension, int):
            raise ConfigError(f"dimension must be an integer, got {dimension!r}")
        self.dimension = dimension
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        self.data = data
        for block, keys in (("domain", _DOMAIN_KEYS), ("codomain", _CODOMAIN_KEYS),
                            ("map", _MAP_KEYS), ("variation", _MAP_KEYS),
                            ("sections", _SECTION_KEYS),
                            ("perturbation", _PERTURBATION_KEYS),
                            ("quadrature", _QUAD_KEYS),
                            ("tolerances", set(DEFAULT_TOLERANCES))):
            if block in data:
                _require_keys(data[block], keys, block)
        if "domain" in data and "chart" in data["domain"]:
            _require_keys(data["domain"]["chart"], _CHART_KEYS, "domain.chart")
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.tolerances.update({k: _number(v, float, f"tolerances.{k}")
                                for k, v in data.get("tolerances", {}).items()})

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
        return cls(data)

    def canonical_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    # --- builders -----------------------------------------------------------------

    def chart(self):
        block = self.data.get("domain", {}).get("chart")
        if block is None:
            return None
        kind = block.get("type")
        n = self.dimension
        if kind == "torus":
            return TorusChart(_numbers(block.get("periods", [1.0] * n), float,
                                       "domain.chart.periods", n))
        if kind == "box":
            bounds = block.get("bounds", [[-1.0, 1.0]] * n)
            if not isinstance(bounds, list) or len(bounds) != n:
                raise ConfigError(f"domain.chart.bounds must be a list of {n} [lo, hi] pairs")
            return BoxChart(tuple(_numbers(b, float, f"domain.chart.bounds[{i}]", 2)
                                  for i, b in enumerate(bounds)))
        raise ConfigError(f"domain.chart.type must be 'torus' or 'box', got {kind!r}")

    def finsler(self) -> FinslerStructure:
        block = self.data.get("domain", {"type": "euclidean"})
        kind = block.get("type", "euclidean")
        n, chart = self.dimension, self.chart()
        if kind == "euclidean":
            return FinslerStructure.euclidean(n, chart=chart)
        if kind == "riemannian":
            if "matrix" not in block:
                raise ConfigError("domain: 'riemannian' requires 'matrix'")
            return FinslerStructure.riemannian(block["matrix"], n, chart=chart)
        if kind == "randers":
            if "alpha" not in block or "beta" not in block:
                raise ConfigError("domain: 'randers' requires 'alpha' and 'beta'")
            return FinslerStructure.randers(block["alpha"], block["beta"], n, chart=chart)
        if kind == "perturbed":
            if "matrix" not in block or "b" not in block:
                raise ConfigError("domain: 'perturbed' requires 'matrix' and 'b'")
            scale = _number(block.get("scale", 1.0), float, "domain.scale")
            return FinslerStructure.perturbed(block["matrix"], block["b"], n, chart=chart, scale=scale)
        if kind == "custom":
            if "f" not in block:
                raise ConfigError("domain: 'custom' requires 'f'")
            return FinslerStructure.custom(block["f"], n, chart=chart)
        raise ConfigError(f"domain.type {kind!r} is not recognized")

    def riemann(self) -> RiemannStructure:
        block = self.data.get("codomain", {"type": "euclidean"})
        kind = block.get("type", "euclidean")
        dim = _number(block.get("dimension", self.dimension), int, "codomain.dimension")
        if kind == "euclidean":
            return RiemannStructure.euclidean(dim)
        if kind == "sphere":
            return RiemannStructure.sphere(dim, _number(block.get("radius", 1.0), float,
                                                        "codomain.radius"))
        if kind == "custom":
            if "matrix" not in block:
                raise ConfigError("codomain: 'custom' requires 'matrix'")
            return RiemannStructure.custom(block["matrix"], dim)
        raise ConfigError(f"codomain.type {kind!r} is not recognized")

    def smooth_map(self) -> SmoothMap:
        block = self.data.get("map")
        if block is None or "components" not in block:
            raise ConfigError("this command requires a 'map' block with 'components'")
        return SmoothMap(block["components"], self.finsler(), self.riemann())

    def family(self) -> VariationFamily:
        block = self.data.get("variation")
        if block is None or "components" not in block:
            raise ConfigError("this command requires a 'variation' block with 'components'")
        return VariationFamily(block["components"], self.finsler(), self.riemann())

    def sections(self):
        block = self.data.get("sections", {})
        out = {}
        for key in ("X", "Y"):
            if key in block:
                out[key] = PullbackSection(block[key])
        if "f" in block:
            out["f"] = block["f"]
        return out

    def perturbation(self) -> PerturbationSetup:
        block = self.data.get("perturbation")
        domain = self.data.get("domain", {})
        if block is None or "b" not in block:
            raise ConfigError("this command requires a 'perturbation' block with 'b'")
        matrix = domain.get("matrix")
        if matrix is None:
            matrix = [["1" if i == j else "0" for j in range(self.dimension)]
                      for i in range(self.dimension)]
        return PerturbationSetup(matrix, block["b"], self.dimension,
                                 chart=self.chart(), a_sources=block.get("a"))

    def c_grid(self):
        block = self.data.get("perturbation", {})
        grid = _numbers(block.get("c_grid", DEFAULT_C_GRID), float, "perturbation.c_grid")
        if not all(c > 0 for c in grid):
            raise ConfigError(f"perturbation.c_grid entries must be > 0, got {list(grid)}")
        return grid

    def quadrature_spec(self, seed_override=None) -> QuadratureSpec:
        block = dict(self.data.get("quadrature", {}))
        if seed_override is not None:
            block["seed"] = _number(seed_override, int, "seed")
        return QuadratureSpec(**block)

    def sample_points(self, count: int = 10, seed: int = 2024):
        """Deterministic (x, y) samples inside the chart, ‖y‖ of order 1."""
        rng = np.random.default_rng(seed)
        box = self.finsler().chart.sample_box()
        pts = []
        for _ in range(count):
            x = np.array([rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
                          for lo, hi in box])
            y = rng.normal(size=self.dimension)
            y /= np.linalg.norm(y)
            y *= rng.uniform(0.7, 1.5)
            pts.append((x, y))
        return pts
