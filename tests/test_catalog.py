"""Catalog entries: lookups, documented values and the expected-template self-check."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

import geocontact as gc
from geocontact import cli
from geocontact.catalog import _HOPF_COMPONENTS, NAMES, all_entries, builtin, self_check
from geocontact.errors import UnknownEntry
from geocontact.field import UnitField

from conftest import ENTRY_NAMES


def test_names_listing():
    assert len(NAMES) == 7
    assert NAMES[0] == "euclidean_parallel"
    assert "s3_weighted(k1,k2)" in NAMES


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        builtin("klein_bottle")
    with pytest.raises(UnknownEntry):
        builtin("s3_weighted(0,2)")


@pytest.mark.parametrize("weights", ["1e200,1", "1e400,1", "1,1e-200"])
def test_weights_whose_squares_are_not_normal_floats_are_unknown(capsys, weights):
    """The metric is built from the squared weights: an inf or a 0 there would
    fail later, as an unknown identifier 'inf' or a division by zero."""
    name = f"s3_weighted({weights})"
    with pytest.raises(UnknownEntry, match=re.escape(f"weighted entry {name!r} needs weights")):
        builtin(name)
    assert cli.main(["analyze", "--entry", name]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: weighted entry") and err.count("\n") == 1
    assert cli.main(["analyze", "--entry", "s3_weighted(2,3)"]) == 0


def test_weighted_name_parsing():
    entry = builtin("s3_weighted(2,3)")
    assert entry.name == "s3_weighted(2,3)"
    assert builtin("s3_weighted( 1.5 , 2.5 )").name == "s3_weighted(1.5,2.5)"


def test_every_name_is_looked_up_with_surrounding_whitespace_stripped(capsys):
    for name in ENTRY_NAMES:
        assert builtin(f" {name}\t").name == name
    assert cli.main(["orbit", "--entry", " s3_hopf"]) == 0
    assert capsys.readouterr().out.startswith(cli.ORBIT_HEADER)


def test_weighted_names_keep_every_digit_of_the_weights(capsys):
    """Weights that differ name different entries, fields and parametrizations,
    and an entry's name looks it up again."""
    near, even = builtin("s3_weighted(2,2.000001)"), builtin("s3_weighted(2,2)")
    assert (near.name, near.field.name) == ("s3_weighted(2,2.000001)", "weighted_hopf_2_2.000001")
    assert (even.name, even.field.name) == ("s3_weighted(2,2)", "weighted_hopf_2_2")
    assert near.manifold.volume_param.name == "hopf_weighted_2_2.000001"
    assert even.manifold.volume_param.name == "hopf_weighted_2_2"
    for entry in (near, even, builtin("s3_weighted( 1.5 , 2.5 )"), builtin("s3_weighted(1e20,-2)"),
                  *all_entries()):
        assert builtin(entry.name).name == entry.name
    assert cli.main(["verify", "T6.1", "--entry", "s3_weighted(2,2.000001)"]) == 0
    assert '"entry": "s3_weighted(2,2.000001)"' in capsys.readouterr().out


def test_all_entries_instantiates_seven():
    entries = all_entries()
    assert len(entries) == 7
    assert entries[3].name == "s3_weighted(2,3)"


def test_field_value_examples(entries):
    np.testing.assert_allclose(
        entries["h3_vertical"].field.value(np.array([0.0, 0.0, 2.0])), [0, 0, 2])
    np.testing.assert_allclose(
        entries["euclidean_skew"].field.value(np.zeros(3)), [0, 0, 1])
    np.testing.assert_allclose(
        entries["s3_hopf"].manifold.metric_at(np.zeros(3)), 4.0 * np.eye(3))


def test_weighted_equal_weights_is_unit_hopf(entries):
    """Equal weights k take the construction of every weight pair: the round
    sphere of radius 1/k, contact volume pi^2 / k^2 and curvature k^2. So (1, 1)
    is the unit Hopf entry and the volume is continuous across k1 = k2."""
    unit, hopf = builtin("s3_weighted(1,1)"), entries["s3_hopf"]
    pts = np.array([[0.3, -0.2, 0.5], [1.0, 0.4, -0.7]])
    np.testing.assert_allclose(unit.field.value(pts), hopf.field.value(pts), atol=1e-14)
    np.testing.assert_allclose(unit.manifold.metric_at(pts),
                               hopf.manifold.metric_at(pts), atol=1e-14)
    even, near = (gc.volume_integral(builtin(name), 32) for name in ("s3_weighted(2,2)",
                                                                     "s3_weighted(2,2.000001)"))
    assert abs(even.value - np.pi ** 2) <= even.estimated_error
    assert abs(even.value - near.value) <= 1e-4
    assert builtin("s3_weighted(2,-2)").space_form_c == 4.0  # the metric reads k1^2 and k2^2
    assert builtin("s3_weighted(2,3)").space_form_c is None


def test_the_hopf_jacobian_is_the_determinant_of_the_chart_map(entries):
    """|det D chart_map| by complex steps (exact to rounding: no difference is
    taken) at random parameters in the box is the parametrization's Jacobian."""
    param = entries["s3_hopf"].manifold.volume_param
    lo, hi = np.array(param.box).T
    params = np.random.default_rng(3).uniform(lo, hi, (200, 3))
    step = 1e-30
    D = np.stack([param.chart_map(params + 1j * step * np.eye(3)[k]).imag / step
                  for k in range(3)], axis=2)  # D[n, i, k] = d x_i / d param_k
    np.testing.assert_allclose(param.jacobian(params, param.chart_map(params)),
                               np.abs(np.linalg.det(D)), rtol=1e-13, atol=0)


def test_default_grids_inside_domain(entries):
    for name in ENTRY_NAMES:
        entry = entries[name]
        pts = entry.grid.points()
        assert pts.shape == (125, 3)
        assert np.all(entry.manifold.contains(pts))


def test_grid_lexicographic_order(entries):
    pts = entries["h3_vertical"].grid.points()
    # x3 varies fastest, x1 slowest
    assert pts[0, 0] == pts[1, 0] == pts[4, 0]
    assert pts[1, 2] > pts[0, 2]
    assert pts[25, 0] > pts[24, 0]


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_catalog_self_check(entries, name):
    """Unit/geodesic bounds plus every expected-template value, 125 points."""
    mismatches = self_check(entries[name])
    assert mismatches == []


#: the Hopf field stretched by 1 + 1e-7 x1: a unit defect up to 2e-7, below
#: diagnose's NotUnit bound and above the self-check's 1e-8
NEAR_HOPF = [f"(1 + 1e-7*x1)*({c})" for c in _HOPF_COMPONENTS]
#: a unit field of flat space that is not geodesic
TILTED = ("1/sqrt(1 + x1^2)", "0", "x1/sqrt(1 + x1^2)")

#: case -> (entry, its field's components or None for its own, template values
#: that replace or join its own, the number of mismatches, sha256 of the list
#: joined by newlines); one wrong value per template key kind
MUTANTS = {
    "contact_abs:zero": ("s3_hopf", None, {"contact_abs": 0.0}, 125,
                         "1dbf593026c8838693abf691b7561779ae33a60782e0f470b8eded47bbed2688"),
    "contact_abs:nonzero": ("heisenberg_reeb", None, {"contact_abs": 1.00002}, 125,
                            "14f58f7acd8cc313ec70a4f3d7e023457a621ca14a6fbb03096cd867e725ae6d"),
    "contact_abs_min": ("s3_weighted(2,3)", None, {"contact_abs_min": 5.0}, 65,
                        "ad76da02ac7d45c7b51126456d466dc2c841f5e110828b4cb26ff6ad67ca550d"),
    "beta_norm": ("euclidean_skew", None, {"beta_norm": 0.6428571428571429}, 109,
                  "9023b32a901a1bf77f9fbf5ef5f05752377ad6a0cf4aa4f66984d9f6a8a2f9a3"),
    "beta_norm:weighted": ("s3_weighted(2,3)", None, {"beta_norm": 3.5}, 125,
                           "d7ab1bbc5c86c6ed7754dab7cddb4473c9310f5b9f3a1057c9198d81e88e21f6"),
    "beta": ("h3_vertical", None, {"beta": ((-1.0, 0.0), (0.0, -0.99))}, 125,
             "c6603ba3cb4e821611a633a25d4a40a74e73589f77cca2a7a2801013b97f3219"),
    "beta_rank": ("h2xr_vertical", None, {"beta_rank": 2}, 125,
                  "d786e26f01285c5908959dc400bbd0419c930c5f9e065dae4fe7226a8cd057f6"),
    "eig_kind": ("h2xr_vertical", None, {"eig_kind": "complex"}, 125,
                 "d81fd8a23689fc03429c8f2b4fff2fb400f608dc2e4a039d32e6bf38580d3135"),
    "real_eigs_sorted": ("h2xr_vertical", None, {"real_eigs_sorted": (-1.0, 0.5)}, 125,
                         "d5e5998a31896860f5bda9c5e53e196dab1eed6d598dc031366b00ccb5856b3d"),
    "real_eigs_sorted:complex": ("s3_hopf", None, {"real_eigs_sorted": (-1.0, 1.0)}, 125,
                                 "96ba3a4f6a062495edb8ed46ff73e4d4142a835d3fe9f737048967b5276e3dca"),
    "disc_max": ("s3_weighted(2,3)", None, {"disc_max": -25.0}, 65,
                 "0ef5263c2f7f9d0442b76791c432982457499231bf5f9e76b63fe231af81161b"),
    "Delta,delta,ric_X": ("s3_hopf", None, {"Delta": 1.1, "delta": 0.9, "ric_X": 2.00002}, 375,
                          "771f65faa2c1b2f4de23d96e7a5e7555825cc8f1621b6e50a5b89446e2cc81ed"),
    "ric_X:weighted": ("s3_weighted(2,3)", None, {"ric_X": 12.4137931}, 121,
                       "1b5d12fe5c6a7493e27b450f6403e91f173541006477e044df3ec450685e4eee"),
    "killing_max": ("euclidean_skew", None, {"killing_max": 0.7}, 68,
                    "78b9a7596c4491d72ad789107b28e8f230ce05f6557b690823320e0a518f5b7d"),
    "not_unit": ("s3_hopf", NEAR_HOPF, {}, 225,
                 "bef6f2dca8a4032d8c0ffc072826efcf5c3d2ba6a44ba8f507f492a25a12c363"),
    "not_geodesic": ("euclidean_parallel", TILTED, {}, 450,
                     "3fd80f54b92ed1cf1c7582b07aafbcda8dd2070bd300ba77a19ed201d8ba7815"),
    # every check in one list: the order is point by point, then key by key
    "every_key": ("s3_hopf", NEAR_HOPF, {
        "contact_abs": 0.0, "contact_abs_min": 3.0, "beta_norm": 1.0,
        "beta": ((0.0, 0.0), (0.0, 0.0)), "beta_rank": 1, "eig_kind": "real",
        "real_eigs_sorted": (0.0, 0.0), "disc_max": -5.0, "Delta": 1.1, "delta": 0.9,
        "ric_X": 2.1, "killing_max": -1.0}, 1600,
        "4eda8a4dd27f8b237f05520eda406d2fa0a32a19279c737c527137f386a0c452"),
}


def mutant(name, components, template):
    entry = builtin(name)
    field = entry.field if components is None else UnitField.from_exprs("mutant", components)
    return dataclasses.replace(entry, field=field, expected={**entry.expected, **template})


@pytest.mark.parametrize("case", MUTANTS)
def test_self_check_reports_every_missed_value(case):
    """A wrong template value, or a field that is not unit or not geodesic,
    is reported at each point that misses it, with the value measured there."""
    name, components, template, count, digest = MUTANTS[case]
    mismatches = self_check(mutant(name, components, template))
    assert len(mismatches) == count
    assert hashlib.sha256("\n".join(mismatches).encode()).hexdigest() == digest


def test_self_check_reports_an_unknown_template_key():
    """A key the self-check does not know is a mismatch, not an unchecked value."""
    entry = mutant("s3_hopf", None, {"ric_x": 2.0})
    assert self_check(entry) == ["s3_hopf: unknown template key 'ric_x'"]


def test_skew_orbits_are_straight_lines(entries):
    """Fibration consistency: flow lines of the skew field are straight."""
    entry = entries["euclidean_skew"]
    rng = np.random.default_rng(61)
    for _ in range(5):
        p0 = rng.uniform(-1.5, 1.5, 3)
        traj = gc.integrate_orbit(entry.manifold, entry.field, p0, 1.0, 1e-2,
                                  with_jacobi=False)
        direction = entry.field.value(p0)
        expected = p0[None, :] + traj.t[:, None] * direction[None, :]
        assert np.abs(traj.points - expected).max() < 1e-8


def test_heisenberg_orbit_is_vertical_line(entries):
    entry = entries["heisenberg_reeb"]
    traj = gc.integrate_orbit(entry.manifold, entry.field,
                              np.array([0.3, -0.2, 0.1]), 1.0, 1e-2, with_jacobi=False)
    np.testing.assert_allclose(traj.points[:, 0], 0.3, atol=1e-12)
    np.testing.assert_allclose(traj.points[:, 1], -0.2, atol=1e-12)
