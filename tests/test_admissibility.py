import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multitile import (
    AdmissibilityCertificate,
    AdmissibilityFailure,
    NoPairFound,
    check,
    find_pair,
    perfect_shift_1d,
)

from builders import ALL, PERFECT, domain_of, tilings
from oracles import check_reference, find_pair_reference


def test_interval_perfect():
    dom = ALL["interval_2tile"]()
    cert = check(dom, [1], [2])
    assert isinstance(cert, AdmissibilityCertificate)
    assert cert.kind == "perfect"
    assert cert.delta == (0.5,)


def test_split_collision_witness():
    dom = ALL["split_2tile"]()
    fail = check(dom, [1], [2])
    assert isinstance(fail, AdmissibilityFailure)
    assert fail.cell == 0 and fail.level == 1
    assert set(fail.pair) == {0.0, 2.0}
    assert "mod 2" in fail.message


def test_split_strong_at_q3():
    dom = ALL["split_2tile"]()
    cert = check(dom, [1], [3])
    assert isinstance(cert, AdmissibilityCertificate)
    assert cert.kind == "strong"  # q=3 differs from the common child count 2


def test_find_pair_prefers_perfect():
    for name in PERFECT:
        cert = find_pair(ALL[name]())
        assert cert.kind == "perfect", name


def test_find_pair_strong_fallback():
    cert = find_pair(ALL["split_2tile"]())
    assert cert.kind == "strong"
    assert (tuple(cert.v), tuple(cert.q)) == ((1,), (3,))
    cert = find_pair(ALL["twocell_2tile_1d"]())
    assert cert.kind == "strong"


def test_find_pair_k1():
    dom = domain_of([[1.0]], [([[0, 1]], [[0]])])
    cert = find_pair(dom)
    assert cert.kind == "perfect"
    assert dom.k == 1


def test_no_pair_found():
    dom = ALL["split_2tile"]()
    with pytest.raises(NoPairFound):
        find_pair(dom, v_max=1, q_max=2)  # q=2 collides, no room to move


def test_check_validates_inputs():
    dom = ALL["interval_2tile"]()
    with pytest.raises(Exception):
        check(dom, [1, 1], [2, 2])  # wrong dimension
    with pytest.raises(Exception):
        check(dom, [1], [0])  # modulus must be positive


def test_certificate_witnesses_cover_levels():
    dom = ALL["plane_4tile_2d"]()
    cert = find_pair(dom)
    assert cert.kind == "perfect"
    levels = {w.level for w in cert.witnesses}
    assert levels == {1, 2}
    for w in cert.witnesses:
        r = np.asarray(w.residues)
        assert len(np.unique(np.round(r, 6))) == len(r)


@pytest.mark.parametrize(
    "offsets,tau",
    [([0, 1], 1.0), ([0, 2], 0.5), ([0, 2, 4], 0.5)],
)
def test_perfect_shift_1d_worked(offsets, tau):
    assert perfect_shift_1d(np.array(offsets)) == pytest.approx(tau)


def test_perfect_shift_1d_failures():
    # residues 0,2,0 mod 3 collide, so no shift makes the system unitary
    assert perfect_shift_1d(np.array([0, 2, 3])) is None
    assert perfect_shift_1d(np.array([0, 4])) == pytest.approx(0.25)
    assert perfect_shift_1d(np.array([5])) == pytest.approx(1.0)  # k=1


def test_admissibility_is_offset_property():
    """The certificate depends only on offsets, not boxes or basis."""
    a = domain_of([[1.0]], [([[0, 1]], [[0], [2]])])
    b = domain_of([[3.0]], [([[0, 1]], [[0], [2]])])
    ca, cb = find_pair(a), find_pair(b)
    assert (tuple(ca.v), tuple(ca.q), ca.kind) == (tuple(cb.v), tuple(cb.q), cb.kind)


def _outcome(fn, *args):
    """A result, or the NoPairFound message, for comparison with ==:
    verdicts, messages, pairs and residues compare exactly, and the
    package's int residues equal the reference's float ones (0 == 0.0,
    0 != 1e-12)."""
    try:
        return fn(*args)
    except NoPairFound as exc:
        return f"NoPairFound: {exc}"


BOUNDS = [(8, None), (1, 2), (2, 3), (3, 16)]


@pytest.mark.parametrize("name", sorted(ALL))
def test_matches_reference_on_fixtures(name):
    dom = ALL[name]()
    for v_max, q_max in BOUNDS:
        assert _outcome(find_pair, dom, v_max, q_max) == _outcome(
            find_pair_reference, dom, v_max, q_max
        )
    per_axis = [(v, q) for v in range(1, 4) for q in range(1, 6)]
    for vq in itertools.product(per_axis, repeat=dom.dimension):
        v, q = [p[0] for p in vq], [p[1] for p in vq]
        assert _outcome(check, dom, v, q) == _outcome(check_reference, dom, v, q)


@given(st.data())
def test_matches_reference_on_random_tilings(data):
    dom = data.draw(tilings())
    d = dom.dimension
    v_max = data.draw(st.integers(1, 8))
    q_max = data.draw(st.one_of(st.none(), st.integers(1, 12)))
    assert _outcome(find_pair, dom, v_max, q_max) == _outcome(
        find_pair_reference, dom, v_max, q_max
    )
    for _ in range(3):
        v = data.draw(st.lists(st.integers(1, 8), min_size=d, max_size=d))
        q = data.draw(st.lists(st.integers(1, 12), min_size=d, max_size=d))
        assert _outcome(check, dom, v, q) == _outcome(check_reference, dom, v, q)
