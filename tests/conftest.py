import hashlib

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


#: ``blas_probe()`` on the host that pinned the golden digests
BLAS_PROBE = "966d3b9d89a628e4ea031f1c9e01d90fca76382374d0f1bd9acc3577f40f0225"


def blas_probe():
    """sha256 of seeded stacks of 3x3 products in the three forms the kernels
    take to BLAS: matrix-matrix (gemm), matrix-vector and vector-matrix (gemv)."""
    rng = np.random.default_rng(78)
    a, b = rng.standard_normal((2, 256, 3, 3))
    v, u = rng.standard_normal((256, 3, 1)), rng.standard_normal((256, 1, 3))
    return hashlib.sha256(b"".join(p.tobytes() for p in (a @ b, a @ v, u @ a))).hexdigest()


def blas_note():
    """The failure message's word on BLAS for a test that pins bits the host's
    BLAS decides (``test_reports``' digests among them): whether ``blas_probe``
    rounds as it did on the pinning host."""
    return "the BLAS probe rounds " + (
        "as on the pinning host" if blas_probe() == BLAS_PROBE else
        "otherwise than on the pinning host, whose BLAS kernels the digests pin")


#: the process-wide expression caches: parsed sources, differentiated
#: subexpressions, compiled programs and single-expression tables
EXPR_CACHES = (expr.parse, expr._derivative, expr._compile, expr._table_of)


@pytest.fixture
def cold_caches():
    """Empty every ``EXPR_CACHES`` cache, so a test sees no earlier test's entries."""
    for cache in EXPR_CACHES:
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
