"""Golden reports: the CLI's stdout is pinned byte for byte by sha256.

A change that moves any digit of these reports must update the digest
here and state which values moved, and by how much, against the
tolerance that governs them.
"""

import hashlib
import json

import pytest

from geocontact import cli

from conftest import CUSTOM_DOC, ENTRY_NAMES, WARPED_DOC


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
    "analyze:custom-expressions": "1e8468179d5ec9a72e27a96800e438fb62658bd06374def24b5a746e45ec6856",
    "analyze:euclidean_parallel": "50e1c2d12e3a5a5f68ce86b2d0e513cd3c769ebddf4646db67d58f628c5626e1",
    "analyze:euclidean_skew": "6036021b0cf5c76aa84c25299b5249b99be756246472705878279b093ceab376",
    "analyze:h2xr_vertical": "222d8826e9fbea2fb14fb03f766301b7f18d035b33320198c31abefb4c4c02a3",
    "analyze:h3_vertical": "2ec255850d5158acd959db45e5cf5c18dc7eeaf59ab2fabf94116779ba3cba18",
    "analyze:heisenberg_reeb": "3b0a345b05d16f61734bd74a38a03811fa9340749b0f70cfdcf6b87eeab9c0ed",
    "analyze:s3_hopf": "1d48c5ae42a3097d7bbb82ef36a7cbd791488724941d14e6b922628d34609813",
    "analyze:s3_weighted(2,3)": "df9a742fc107d0a1f5621483bf886b0a552bc63feab9e3109b2bc5efcdcf7701",
    "catalog": "52ef2e393c3f26ddb4bb7364ea7bd5f6ee558776eb2a3a951da9adb40a445d60",
    "catalog:json": "f0f5e38874223a53a3ddab4cf8d7a7116cc2ebd6b5c07dd1bcdabd3336125f87",
    "orbit:h3_cap": "bfd561065016a0471f07091a80335e2b078be42c3e7f4ca9c74a3cc96a46ffca",
    "orbit:h3_vertical": "681c52dee4de01f4322937e21a998e773a458854c787204b24dbd39114fc544b",
    "orbit:s3_hopf": "5247ed58a5a0ad00858b4e85500420b57773fc2de656e0d05adc36d29f14f7e6",
    "orbit-default:h3_vertical":
        "200b779e172cb715ed40ec2f2b90433dbc1a32b4d3e431828b45b94393b0df39",
    "orbit-default:s3_hopf": "2ada28ccf83493526a6eb4c0e27ddf6675da20baca4b16472f3011d7affa512a",
    "verify:P7.6:s3_hopf": "a210ba8f336941c1a929787d96e76898afa01b2e3a679b64b88b94203999e1e1",
    "verify:T3.1,C3.2,T5.1,C5.2:all": "d4c14346cf3a521e5b02b3f7f35a56af4092e7cbb4ba1afd82dcc0b48954d171",
    "verify:all": "e9521bf1f47f4fb30e19ce931fe139077f908367123a5856aacf5f5dbacfb67b",
    "verify:T5.1,C5.2,T3.1,C3.2:tilted":
        "8cb4747a3c8ebbd455b5ca78e31220afeeeb23b9e6bd10afa00a871705c256e1",
    "verify:T6.1:h2xr_vertical": "9de9f6292e2ddc0e7755dd6d4be25a4965e70ade6093d9c0bf3320763111cb2e",
    "verify:T6.1:h3_cap": "92386e2bf7b40e2a319d843a5746fe27bb9e97fe82a52ad470457e59214ecd8a",
    "verify:T6.1:s3_hopf": "ca5049e8a290e448d06c204fc9f3512f89297320e3714ad8bfe3dee3b3edaeff",
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
    assert digest == DIGESTS[case]
