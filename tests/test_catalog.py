"""Catalog entries: lookups, documented values and the expected-template self-check."""

import re

import numpy as np
import pytest

import geocontact as gc
from geocontact import cli
from geocontact.catalog import NAMES, all_entries, builtin, self_check
from geocontact.errors import UnknownEntry

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
