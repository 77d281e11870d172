import numpy as np
import pytest

import geocontact as gc
from geocontact import expr

ENTRY_NAMES = (
    "euclidean_parallel",
    "euclidean_skew",
    "s3_hopf",
    "s3_weighted(2,3)",
    "h2xr_vertical",
    "h3_vertical",
    "heisenberg_reeb",
)

#: a custom chart whose expressions use sin, exp, sqrt, log, a non-integer
#: power and quotients of non-constants, with a domain expression
CUSTOM_G = "exp(sin(x1)/2)*log(3 + x2^2)*(1 + x3^2)^0.75"
CUSTOM_DOC = {"manifold": {"metric": [[CUSTOM_G, "x1*x2/(4 + x3^2)", "0"],
                                      ["x1*x2/(4 + x3^2)", CUSTOM_G, "0"],
                                      ["0", "0", CUSTOM_G]],
                           "domain": "2 - sqrt(x1^2 + x2^2 + x3^2)"},
              "field": {"components": ["0", "0", f"sqrt(1 + x1^2)/sqrt((1 + x1^2)*{CUSTOM_G})"]},
              "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}}

#: g = f(x3)^2 (dx1^2 + dx2^2) + dx3^2, f = 2 - x3^2, and X = d_3: B = (f'/f) I
#: and R_X = -(f''/f) I, so Delta = delta = 2/(2 - x3^2), and R_X drifts along
#: the flow, which reaches the degenerate boundary x3 = +-sqrt(2) in finite time
WARPED_DOC = {"manifold": {"metric": [["(2 - x3^2)^2", "0", "0"], ["0", "(2 - x3^2)^2", "0"],
                                      ["0", "0", "1"]],
                           "domain": "2 - x3^2"},
              "field": {"components": ["0", "0", "1"]},
              "grid": {"min": [-0.5, -0.5, -0.5], "max": [0.5, 0.5, 0.5], "counts": [5, 5, 5]}}


@pytest.fixture
def cold_caches():
    """Empty the process-wide expression caches (parsed sources, compiled
    programs, single-expression tables), so a test sees no earlier test's entries."""
    for cache in (expr.parse, expr._compile, expr._table_of):
        cache.cache_clear()


@pytest.fixture(scope="session")
def entries():
    return {name: gc.builtin(name) for name in ENTRY_NAMES}


@pytest.fixture(scope="session")
def orbit_cache(entries):
    """Lazily integrated default orbits (t in [0, 2], step 1e-3), shared
    across the whole run because each costs a few seconds."""
    cache = {}

    def get(name):
        if name not in cache:
            e = entries[name]
            cache[name] = gc.integrate_orbit(
                e.manifold, e.field, np.asarray(e.orbit.start, float),
                e.orbit.t_end, e.orbit.step)
        return cache[name]

    return get
