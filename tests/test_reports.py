"""Golden reports: the CLI's stdout is pinned byte for byte by sha256.

A change that moves any digit of these reports must update the digest
here and state which values moved, and by how much, against the
tolerance that governs them.
"""

import hashlib
import json

import pytest

from geocontact import cli

from conftest import CUSTOM_DOC, ENTRY_NAMES


def _orbit_doc(name, start):
    return {"manifold": name, "orbit": {"start": start, "t_end": 0.2, "step": 0.001}}


#: a flat chart with a unit field that is not geodesic: 54 space-form violations
TILTED_DOC = {"manifold": {"metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
              "field": {"components": ["1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)"]},
              "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [3, 3, 3]}}


#: case id -> (argv, config document written to --config, or None)
CASES = {
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
}

#: case id -> exit code, where it is not 0
EXIT_CODES = {"verify:T5.1,C5.2,T3.1,C3.2:tilted": 1, "analyze:custom-expressions": 1}

DIGESTS = {
    "analyze-central:s3_hopf": "2bd168591f7e500df78dc5bb622699bffbb7939e3d1613bb9d5f11ff1dd41809",
    "analyze:custom-expressions": "c832d371f1626e695d2ad93f0ca712bb56ea3046055abc47042873e0261dd492",
    "analyze:euclidean_parallel": "50e1c2d12e3a5a5f68ce86b2d0e513cd3c769ebddf4646db67d58f628c5626e1",
    "analyze:euclidean_skew": "6036021b0cf5c76aa84c25299b5249b99be756246472705878279b093ceab376",
    "analyze:h2xr_vertical": "b12b783b5c4943fb3d5f9928fe684b73110d736d0a1cfc7eacf999fe2d523d4f",
    "analyze:h3_vertical": "b928f1ad1c27e98e38c3b5ba5c492e311dfef2db477fd147b7966a0c4c084873",
    "analyze:heisenberg_reeb": "3894667fa8dee4daa1bc2bbcbd48b6ce95d9cd9fb236ea9f89f03ca6464f75de",
    "analyze:s3_hopf": "62e7387d9373d5a27635db71100f6dad8763ac381f4288dc4e25432e964e13c8",
    "analyze:s3_weighted(2,3)": "dc7afb2beca519172b451cbbf2c3c2b074de74397317309e2f5c535b149a6203",
    "orbit:h3_vertical": "830ca9d55a957ded2f294ec1d90ac8c42ce96dc099683872f25e81c29d1ee6d2",
    "orbit:s3_hopf": "c63c479a6d90cfe031bc32564bc8bdb266bd7949ac33cc1d87b44d7b4a3ec2a2",
    "orbit-default:h3_vertical":
        "91ccbd6d040b41cee47af9011722ffc976457c519d2b1e6281e32912f2c8cb7f",
    "orbit-default:s3_hopf": "74057ce145ac531bbd128abc950f443422c9c8f4a8c77a6a0f181ee29532d752",
    "verify:P7.6:s3_hopf": "a23f0fe43b435f4f4aeacb082ab697a49e0679f96e113ae3dfe4d87d70ec3144",
    "verify:T3.1,C3.2,T5.1,C5.2:all": "bb174ada82e2db1e163240479c3351be154d1b6d778e34f80388d298f8ab35c4",
    "verify:all": "754fe9f4d7bc7facbedde42fba6e6ce093012da8e6b13ee1ea283ec3af090db9",
    "verify:T5.1,C5.2,T3.1,C3.2:tilted":
        "8cb4747a3c8ebbd455b5ca78e31220afeeeb23b9e6bd10afa00a871705c256e1",
    "verify:T6.1:h2xr_vertical": "cf6edbc88755fec084f3948652ce28bcf5775f677107297426b467db6d80b303",
    "verify:T6.1:s3_hopf": "970a828a03a6fabf4afdfc29801a3f96b8193a5ba0a7dc8b9466d762b8cd69e3",
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
    assert digest == DIGESTS[case]
