"""Golden reports: the CLI's stdout is pinned byte for byte by sha256.

A change that moves any digit of these reports must update the digest
here and state which values moved, and by how much, against the
tolerance that governs them.

The digests pin bits that the BLAS library decides, not numpy alone: the
kernels multiply C-ordered 3x3 operands (``field.frame_terms``,
``curvature.jacobi_matrix`` and ``_curvature_operator``), which numpy hands
to its BLAS (gemm and gemv), and a CPU-dispatched kernel fixes how those
products round. They were pinned with numpy 2.4.6 on scipy-openblas 0.3.31
(DYNAMIC_ARCH) on an AVX-512/FMA CPU. On that host, with correct code,
``OPENBLAS_CORETYPE=Haswell`` fails 7 of the 25 digests (13 tier-1 tests in
all) and ``Prescott`` fails 14. So a mismatch first says whether
``blas_probe`` still rounds as it did on the pinning host: if it does not,
the host's BLAS may account for the mismatch (``conftest.blas_note``, which
the other tests that pin BLAS-decided bits give too).
"""

import hashlib
import json

import pytest

from geocontact import cli

from conftest import CUSTOM_DOC, ENTRY_NAMES, WARPED_DOC, blas_note


def _orbit_doc(name, start):
    return {"manifold": name, "orbit": {"start": start, "t_end": 0.2, "step": 0.001}}


#: a flat chart with a unit field that is not geodesic: 54 space-form violations
TILTED_DOC = {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
              "field": {"components": ["1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"]},
              "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}}


#: the h3_vertical metric and field on 0 < x3 < 1.2, whose upward orbits leave the chart
H3_CAP = {"manifold": {"metric": [["1/x3^2", "0", "0"], ["0", "1/x3^2", "0"],
                                  ["0", "0", "1/x3^2"]],
                       "domain": "x3*(1.2 - x3)"},
          "field": {"components": ["0", "0", "x3"]}}


#: case id -> (argv, config document written to --config, or None)
CASES = {
    "catalog": (["catalog"], None),
    "catalog:json": (["catalog", "--json"], None),
    **{f"analyze:{name}": (["analyze", "--entry", name], None) for name in ENTRY_NAMES},
    "analyze-central:s3_hopf": (["analyze"], {"manifold": "s3_hopf",
                                              "diff": {"mode": "central"}}),
    "analyze:custom-expressions": (["analyze"], CUSTOM_DOC),
    "verify:T3.1,C3.2,T5.1,C5.2:all": (["verify", "T3.1", "C3.2", "T5.1", "C5.2", "--all"],
                                       None),
    # every suite on every entry, P7.6 and T6.1 included
    "verify:all": (["verify", "--all"], None),
    "orbit:h3_vertical": (["orbit"], _orbit_doc("h3_vertical", [0.0, 0.0, 1.0])),
    "orbit:s3_hopf": (["orbit"], _orbit_doc("s3_hopf", [0.3, 0.2, 0.1])),
    # the catalog's default orbits: 2,000 steps, five Jacobi blocks each
    "orbit-default:h3_vertical": (["orbit", "--entry", "h3_vertical"], None),
    "orbit-default:s3_hopf": (["orbit", "--entry", "s3_hopf"], None),
    "volume:s3_hopf:16": (["volume", "--entry", "s3_hopf", "--nodes", "16"], None),
    "verify:T5.1,C5.2,T3.1,C3.2:tilted": (["verify", "T5.1", "C5.2", "T3.1", "C3.2",
                                           "--c", "0"], TILTED_DOC),
    "verify:T6.1:h2xr_vertical": (["verify", "T6.1", "--entry", "h2xr_vertical"], None),
    "verify:T6.1:s3_hopf": (["verify", "T6.1", "--entry", "s3_hopf"], None),
    "verify:P7.6:s3_hopf": (["verify", "P7.6", "--entry", "s3_hopf"], None),
    # truncating orbits: one that prints "# truncated: true", and T6.1 seeds near the cap
    "orbit:h3_cap": (["orbit"], {**H3_CAP, "orbit": {"start": [0.1, -0.2, 1.0], "t_end": 0.5,
                                                     "step": 0.001}}),
    "verify:T6.1:h3_cap": (["verify", "T6.1"], {**H3_CAP, "grid": {
        "min": [-0.5, -0.5, 0.9], "max": [0.5, 0.5, 1.15], "counts": [3, 3, 5]}}),
    # the only golden whose T6.1 verdict its Jacobi tensor drift decides
    "verify:T6.1:warped": (["verify", "T6.1"], WARPED_DOC),
}

#: case id -> exit code, where it is not 0
EXIT_CODES = {"verify:T5.1,C5.2,T3.1,C3.2:tilted": 1, "analyze:custom-expressions": 1}

DIGESTS = {
    "analyze-central:s3_hopf": "f54200c7f051ab51adf82c79cba9a651a7333cc723a38849fad492835618f156",
    "analyze:custom-expressions": "3311c980b4636609a50ade99cf6e8fad58d59e59dd7e0e5765af801e7f0d7245",
    "analyze:euclidean_parallel": "50e1c2d12e3a5a5f68ce86b2d0e513cd3c769ebddf4646db67d58f628c5626e1",
    "analyze:euclidean_skew": "eab5dbb1ec23623450f431e248945f6106b37c0ae50b9017f74b652235f5425b",
    "analyze:h2xr_vertical": "ac4d706ae06122302632c5a2ebb93cb4cab701b037856938ce3aa8e86ee4c01b",
    "analyze:h3_vertical": "0193f237e3741ca6d2e9fad4cbb5e7eab316ee753d15baa4bf9b4b49489733c9",
    "analyze:heisenberg_reeb": "3b0a345b05d16f61734bd74a38a03811fa9340749b0f70cfdcf6b87eeab9c0ed",
    "analyze:s3_hopf": "f797855a56fabe3947ab3e20d381ffa1990a22127e4222ed5845675ea5414e0f",
    "analyze:s3_weighted(2,3)": "8ff3731088ce9c04149471c138dc6f06447857eddcbe9116e68ab092b9c0f374",
    "catalog": "52ef2e393c3f26ddb4bb7364ea7bd5f6ee558776eb2a3a951da9adb40a445d60",
    "catalog:json": "f0f5e38874223a53a3ddab4cf8d7a7116cc2ebd6b5c07dd1bcdabd3336125f87",
    "orbit:h3_cap": "aa9eb2921c8faf08ceffc89ba19c77d5a460733094715a7594e2872da874eab9",
    "orbit:h3_vertical": "01b365e770f3405b00b1ba92c9992398b2f200e8bdabb33882a55705aebfbb63",
    "orbit:s3_hopf": "52069f258327aab40f14b09f766f12002466d297ccef72ce82ab9d41d01d2644",
    "orbit-default:h3_vertical":
        "9d1069c6aa5c5a857305aa80ac9d411a3a2591c492b1c7e236cbc1f578fd270a",
    "orbit-default:s3_hopf": "28bfd2594f7076675b807f5b39c09a7ce3cb7a472b03154760ea992aa726829a",
    "verify:P7.6:s3_hopf": "a210ba8f336941c1a929787d96e76898afa01b2e3a679b64b88b94203999e1e1",
    "verify:T3.1,C3.2,T5.1,C5.2:all": "fabbac1824a4308c2685d215cb4a838c90dfd4ced7e86daa98934a97f865a5d9",
    "verify:all": "ea539dc44593964878f2b784aa5dd121014fabfbf08f445998c0228b88c30ece",
    "verify:T5.1,C5.2,T3.1,C3.2:tilted":
        "8cb4747a3c8ebbd455b5ca78e31220afeeeb23b9e6bd10afa00a871705c256e1",
    "verify:T6.1:h2xr_vertical": "cd5a7ba2584d152257e901c304415b9c4a43e3d7c2b8066c8dfaa264c9870242",
    "verify:T6.1:h3_cap": "3a016dd47c928fbc0dacfd1f6883f26cb3a3cbc803af2e5b9a055282f665512c",
    "verify:T6.1:s3_hopf": "000663bf6b2ea2dbdac76d97b10926368c69c48cabd842ad65cbfedbace5dd05",
    "verify:T6.1:warped": "5a1380ea0654f9d4006108d7acf9fbf7713276ece2554f1fec76b912ec6c6a2a",
    "volume:s3_hopf:16": "a0314bc07313ffba8aed781bd59f3060fbab3d1f62756647af34f86fc634a9ac",
}


def report_digest(tmp_path, capsys, case):
    argv, doc = CASES[case]
    if doc is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = argv + ["--config", str(path)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_golden(tmp_path, capsys, case):
    code, digest = report_digest(tmp_path, capsys, case)
    assert code == EXIT_CODES.get(case, 0)
    assert digest == DIGESTS[case], f"{case}: the report moved; {blas_note()}"
