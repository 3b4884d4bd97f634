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
      "quadrature": {"x_resolution": int, "y_samples": int, "seed": int, "workers": int},
      "tolerances": {<name>: float, ..}
    }
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .finsler import BoxChart, FinslerStructure, TorusChart
from .identity import DEFAULT_C_GRID, PerturbationSetup
from .maps import SmoothMap, VariationFamily
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
_QUAD_KEYS = {"x_resolution", "y_samples", "seed", "workers"}

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
#: Tolerances that bound a gap or a residual from above, so must be >= 0.
_BOUNDS = ("harmonic", "biharmonic", "identity_routes", "structural", "weitzenbock",
           "first_variation_rel", "second_variation_rel")
#: Slope bands: tolerances.<band>_low must be below tolerances.<band>_high.
_BANDS = ("slope_tau", "slope_tau2")


def _require_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")


def _number(value, kind, where: str):
    """`value` as a `kind`, or a ConfigError naming the key `where`: a string,
    a bool, a non-finite number (JSON's `NaN` and `Infinity` included) and,
    for an int, a fractional one are refused rather than converted."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind is float:
                number = float(value)
            elif isinstance(value, int) or value.is_integer():
                number = int(value)
        except OverflowError:
            pass
    if number is None or kind is float and not math.isfinite(number):
        noun = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{where} must be {noun}, got {value!r}")
    return number


def _numbers(values, kind, where: str, length=None) -> tuple:
    """A list of config numbers, of `length` entries when that is given."""
    if not isinstance(values, (list, tuple)) or length not in (None, len(values)):
        raise ConfigError(f"{where} must be a list of {length or 'some'} numbers, got {values!r}")
    return tuple(_number(v, kind, f"{where}[{i}]") for i, v in enumerate(values))


def _positive(number, where: str):
    """`number` if it is > 0, else a ConfigError naming the key `where`."""
    if not number > 0:
        raise ConfigError(f"{where} must be > 0, got {number!r}")
    return number


def _shaped(value, shape: tuple, where: str):
    """`value` if it is a list of shape[0] entries, each of shape[1:], else a
    ConfigError naming the key `where` (entries are checked when parsed)."""
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ConfigError(f"{where} must be a list of {shape[0]} entries, got {value!r}")
    if len(shape) > 1:
        for i, entry in enumerate(value):
            _shaped(entry, shape[1:], f"{where}[{i}]")
    return value


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
        for key in _BOUNDS:
            if self.tolerances[key] < 0:
                raise ConfigError(f"tolerances.{key} must be >= 0, got {self.tolerances[key]!r}")
        for band in _BANDS:
            lo, hi = self.tolerances[f"{band}_low"], self.tolerances[f"{band}_high"]
            if not lo < hi:
                raise ConfigError(f"tolerances.{band}_low must be below tolerances.{band}_high, "
                                  f"got [{lo!r}, {hi!r}]")

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
            periods = _numbers(block.get("periods", [1.0] * n), float, "domain.chart.periods", n)
            return TorusChart(tuple(_positive(p, f"domain.chart.periods[{i}]")
                                    for i, p in enumerate(periods)))
        if kind == "box":
            bounds = _shaped(block.get("bounds", [[-1.0, 1.0]] * n), (n,), "domain.chart.bounds")
            bounds = tuple(_numbers(b, float, f"domain.chart.bounds[{i}]", 2)
                           for i, b in enumerate(bounds))
            for i, (lo, hi) in enumerate(bounds):
                if not lo < hi:
                    raise ConfigError(f"domain.chart.bounds[{i}] must have lo < hi, "
                                      f"got [{lo!r}, {hi!r}]")
            return BoxChart(bounds)
        raise ConfigError(f"domain.chart.type must be 'torus' or 'box', got {kind!r}")

    def finsler(self) -> FinslerStructure:
        """The domain structure, built and validated when first read."""
        return self._finsler

    @cached_property
    def _finsler(self) -> FinslerStructure:
        block = self.data.get("domain", {"type": "euclidean"})
        kind = block.get("type", "euclidean")
        n, chart = self.dimension, self.chart()
        if kind == "euclidean":
            return FinslerStructure.euclidean(n, chart=chart)
        if kind == "riemannian":
            if "matrix" not in block:
                raise ConfigError("domain: 'riemannian' requires 'matrix'")
            return FinslerStructure.riemannian(_shaped(block["matrix"], (n, n), "domain.matrix"),
                                               n, chart=chart)
        if kind == "randers":
            if "alpha" not in block or "beta" not in block:
                raise ConfigError("domain: 'randers' requires 'alpha' and 'beta'")
            return FinslerStructure.randers(_shaped(block["alpha"], (n, n), "domain.alpha"),
                                            _shaped(block["beta"], (n,), "domain.beta"),
                                            n, chart=chart)
        if kind == "perturbed":
            if "matrix" not in block or "b" not in block:
                raise ConfigError("domain: 'perturbed' requires 'matrix' and 'b'")
            scale = _number(block.get("scale", 1.0), float, "domain.scale")
            return FinslerStructure.perturbed(_shaped(block["matrix"], (n, n), "domain.matrix"),
                                              block["b"], n, chart=chart, scale=scale)
        if kind == "custom":
            if "f" not in block:
                raise ConfigError("domain: 'custom' requires 'f'")
            return FinslerStructure.custom(block["f"], n, chart=chart)
        raise ConfigError(f"domain.type {kind!r} is not recognized")

    def riemann(self) -> RiemannStructure:
        block = self.data.get("codomain", {"type": "euclidean"})
        kind = block.get("type", "euclidean")
        dim = _number(block.get("dimension", self.dimension), int, "codomain.dimension")
        if dim < 1:
            raise ConfigError(f"codomain.dimension must be >= 1, got {dim}")
        if kind == "euclidean":
            return RiemannStructure.euclidean(dim)
        if kind == "sphere":
            radius = _positive(_number(block.get("radius", 1.0), float, "codomain.radius"),
                               "codomain.radius")
            rho4 = (radius * radius) * (radius * radius)   # written into the metric's source
            if not (math.isfinite(rho4) and rho4 > 0):
                raise ConfigError(f"codomain.radius must have a finite, nonzero 4th power, "
                                  f"got {radius!r}")
            return RiemannStructure.sphere(dim, radius)
        if kind == "custom":
            if "matrix" not in block:
                raise ConfigError("codomain: 'custom' requires 'matrix'")
            return RiemannStructure.custom(_shaped(block["matrix"], (dim, dim), "codomain.matrix"),
                                           dim)
        raise ConfigError(f"codomain.type {kind!r} is not recognized")

    def _components(self, key: str):
        """(<key>.components, domain, codomain), one expression per codomain dimension."""
        block = self.data.get(key)
        if block is None or "components" not in block:
            raise ConfigError(f"this command requires a '{key}' block with 'components'")
        fs, rs = self.finsler(), self.riemann()
        return _shaped(block["components"], (rs.dim,), f"{key}.components"), fs, rs

    def smooth_map(self) -> SmoothMap:
        return SmoothMap(*self._components("map"))

    def family(self) -> VariationFamily:
        return VariationFamily(*self._components("variation"))

    def section(self, key: str, length: int) -> list:
        """sections.<key>: a list of `length` expressions."""
        block = self.data.get("sections", {})
        if key not in block:
            raise ConfigError(f"this command requires sections.{key}")
        return _shaped(block[key], (length,), f"sections.{key}")

    def perturbation(self) -> PerturbationSetup:
        block = self.data.get("perturbation")
        domain = self.data.get("domain", {})
        if block is None or "b" not in block:
            raise ConfigError("this command requires a 'perturbation' block with 'b'")
        n = self.dimension
        matrix = domain.get("matrix")
        if matrix is None:
            matrix = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        a = block.get("a")
        if a is not None:
            a = _shaped(a, (n,), "perturbation.a")
        return PerturbationSetup(_shaped(matrix, (n, n), "domain.matrix"), block["b"], n,
                                 chart=self.chart(), a_sources=a)

    def c_grid(self):
        block = self.data.get("perturbation", {})
        grid = _numbers(block.get("c_grid", DEFAULT_C_GRID), float, "perturbation.c_grid")
        return tuple(_positive(c, f"perturbation.c_grid[{i}]") for i, c in enumerate(grid))

    def quadrature_spec(self, seed_override=None) -> QuadratureSpec:
        block = dict(self.data.get("quadrature", {}))
        if seed_override is not None:
            block["seed"] = _number(seed_override, int, "seed")
        return QuadratureSpec(**block)

    def sample_points(self, count: int = 10):
        """Deterministic (x, y) samples inside the chart, ‖y‖ of order 1."""
        rng = np.random.default_rng(2024)
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
