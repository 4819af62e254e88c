"""Width-sweep evaluation: ladder semantics and sharing guarantees."""

from fractions import Fraction

import pytest

import repro
from repro.machine import family_machine
from repro.sweep import sweep_program

SAXPY = """
program saxpy
  integer n, i
  real a, x(n), y(n)
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end do
end
"""

STRAIGHT = """
program s
  real x, y
  x = 1.0
  y = x * 2.0
end
"""


@pytest.fixture(scope="module")
def saxpy():
    return repro.parse_program(SAXPY)


def test_ladder_points_and_saturation(saxpy):
    out = sweep_program(saxpy, widths=(1, 2, 4, 6, 8),
                        bindings={"n": Fraction(100)})
    assert out.widths == (1, 2, 4, 6, 8)
    cycles = [p.cycles for p in out.points]
    # Monotone non-increasing: width never hurts.
    assert cycles == sorted(cycles, reverse=True)
    # Width 1 is fetch-bound at exactly N cycles.
    assert out.points[0].cycles == out.instructions
    assert out.points[0].ipc == 1.0
    # IPC grows with width until saturation.
    assert out.points[-1].ipc > 4.0
    assert out.saturation_width in out.widths


def test_base_is_max_of_placement_and_fetch_bound(saxpy):
    out = sweep_program(saxpy, widths=(1, 8), bindings={"n": Fraction(100)})
    for point in out.points:
        fetch = out.instructions / point.width
        assert point.cycles == pytest.approx(
            max(point.placement_cycles, fetch), rel=1e-9)


def test_fingerprints_match_family_members(saxpy):
    out = sweep_program(saxpy, widths=(2, 4), bindings={"n": Fraction(10)})
    for point in out.points:
        assert point.fingerprint == family_machine(point.width).fingerprint()


def test_penalties_appear_with_rates(saxpy):
    clean = sweep_program(saxpy, widths=(4,), bindings={"n": Fraction(100)})
    dirty = sweep_program(saxpy, widths=(4,), bindings={"n": Fraction(100)},
                          branch_miss_rate=0.02, cache_miss_rate=0.01)
    assert dirty.points[0].penalty_cycles > 0
    assert dirty.points[0].cycles == pytest.approx(
        clean.points[0].cycles + dirty.points[0].penalty_cycles, abs=1e-3)


def test_bad_rates_rejected(saxpy):
    with pytest.raises(ValueError):
        sweep_program(saxpy, branch_miss_rate=1.5)
    with pytest.raises(ValueError):
        sweep_program(saxpy, cache_miss_rate=-0.1)


def test_missing_binding_raises(saxpy):
    from repro.symbolic.poly import PolyError

    # PolyError is in the service's client-error set, so this surfaces
    # as a 400 at the endpoint rather than a 500.
    with pytest.raises(PolyError):
        sweep_program(saxpy, widths=(1, 2))


def test_constant_program_needs_no_bindings():
    out = sweep_program(repro.parse_program(STRAIGHT), widths=(1, 4))
    assert out.instructions > 0
    assert all(p.cycles >= 1 for p in out.points)


def test_default_ladder_and_dedup(saxpy):
    out = sweep_program(saxpy, bindings={"n": Fraction(50)})
    assert out.widths == (1, 2, 4, 6, 8)
    # Widths 1 and 2 share a unit configuration (1 pipe each), so their
    # placement cycles are identical by construction.
    assert out.points[0].placement_cycles == out.points[1].placement_cycles


def test_translation_sharing_is_exercised(saxpy):
    out = sweep_program(saxpy, widths=(1, 2, 4, 8),
                        bindings={"n": Fraction(100)})
    # Later widths replay the first width's translations via the facade.
    assert out.shared_translations > 0


def test_sweep_matches_single_width_prediction(saxpy):
    """A one-width sweep with the fetch bound folded in agrees with
    predicting directly on the family member."""
    member = family_machine(4)
    cost = repro.predict(saxpy, machine=member)
    placed = float(cost.evaluate({"n": Fraction(100)}))
    out = sweep_program(saxpy, widths=(4,), bindings={"n": Fraction(100)})
    assert out.points[0].placement_cycles == pytest.approx(placed)


def test_sweep_respects_machine_argument(saxpy):
    wide = sweep_program(saxpy, machine="wide", widths=(2,),
                         bindings={"n": Fraction(20)})
    power = sweep_program(saxpy, machine="power", widths=(2,),
                          bindings={"n": Fraction(20)})
    assert wide.machine == "wide"
    assert wide.points[0].fingerprint != power.points[0].fingerprint
