"""README's library tour runs as written and prints what its comments say."""

import pathlib
import re

import numpy as np
import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def tour():
    """The namespace of README's first python block, run in a fresh one."""
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {"__name__": "readme_tour"}
    exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_tour_pc_on_three_points(tour):
    out = tour["out"]
    assert out.value.tolist() == [0.0]
    assert abs(out.gap[0] - 2.0 / 3.0) <= 1e-15


def test_tour_pc_section(tour):
    a, b = tour["a"], tour["b"]
    assert a.tolist() == [1.0 / 3.0] and b.tolist() == [0.0]
    assert 2.0 * np.hypot(a[0], b[0]) == tour["out"].gap[0]


def test_tour_localizer_certifies_both_ties(tour):
    centers = [np.asarray(b.center) for b in tour["boxes"] if b.status == "certified"]
    assert len(centers) == 2
    for tie in ((0.0, 0.0), (-0.317, 0.549)):
        assert sum(np.linalg.norm(c - tie) <= 1e-3 for c in centers) == 1


def test_tour_half_angle_winds_once(tour):
    loop = tour["rectangle_loop"]((0, 0), (0.5, 0.5), 32)
    assert tour["winding_number"](loop, tour["half_angle"]).degree == 1


def test_tour_exponents_and_counts(tour):
    assert abs(tour["rep"].exponent - 2.0) <= 0.3  # criterion 1's band
    assert abs(tour["prof"].fitted_exponent + 1.0) <= 0.05
    assert tour["est"].occupied_counts == (44, 112, 332, 960, 2772, 8008)
