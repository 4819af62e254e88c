"""Feature extraction: determinism, kernel invariance, memo behavior."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import set_placement_kernel
from repro.learn import (
    FEATURE_DIM,
    StaticFeatures,
    extract_static,
    feature_cache_stats,
    feature_vector,
    peek_static,
    reset_feature_cache,
)

SAXPY = """
subroutine saxpy(n, a)
  integer n, i
  real a, x(n), y(n)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end
"""

NESTED = """
subroutine nest(n, m)
  integer n, m, i, j
  real a(100), b(100), c(100)
  do i = 1, n
    do j = 1, m
      a(j) = b(j) * c(j) + a(j)
    end do
    c(i) = a(i) + 2.0
  end do
end
"""

BRANCHY = """
subroutine pick(n, t)
  integer n, i, t
  real a(n), b(n)
  do i = 1, n
    if (t .gt. 0) then
      a(i) = a(i) * 2.0
    else
      b(i) = b(i) + 1.0
    end if
  end do
end
"""

PROGRAMS = {"saxpy": SAXPY, "nested": NESTED, "branchy": BRANCHY}


@pytest.fixture(autouse=True)
def _fresh_memo():
    reset_feature_cache()
    yield
    reset_feature_cache()


def test_static_features_shape():
    static = extract_static(NESTED, "power")
    assert isinstance(static, StaticFeatures)
    assert static.variables == {"n", "m"}
    assert len(static.blocks) >= 2
    x = feature_vector(static, {"n": Fraction(8), "m": Fraction(4)})
    assert len(x) == FEATURE_DIM
    assert x[0] == 1.0          # bias


def test_vector_scales_with_trip_counts():
    static = extract_static(SAXPY, "power")
    small = feature_vector(static, {"n": 10})
    large = feature_vector(static, {"n": 1000})
    # Weighted slots grow with the trip count; structural slots do not.
    assert sum(large[1:]) > sum(small[1:])
    assert large[-1] == small[-1]


def test_unbound_variables_return_none():
    static = extract_static(NESTED, "power")
    assert feature_vector(static, {"n": 4}) is None
    assert feature_vector(static, {}) is None


def test_empty_trip_count_clamps_to_zero():
    static = extract_static(SAXPY, "power")
    empty = feature_vector(static, {"n": 0})
    negative = feature_vector(static, {"n": -5})
    assert empty == negative    # both clamp the loop away entirely


def test_memo_hits_and_peek():
    assert peek_static(SAXPY, "power") is None      # cold: memo only
    static = extract_static(SAXPY, "power")
    assert peek_static(SAXPY, "power") is static    # warmed by extract
    assert extract_static(SAXPY, "power") is static
    stats = feature_cache_stats()
    assert stats["hits"] >= 1 and stats["misses"] == 1


def test_unknown_machine_raises_keyerror():
    with pytest.raises(KeyError):
        extract_static(SAXPY, "no-such-machine")
    assert peek_static(SAXPY, "no-such-machine") is None


def test_machine_changes_features():
    power = extract_static(SAXPY, "power")
    scalar = extract_static(SAXPY, "scalar")
    assert power.fingerprint != scalar.fingerprint
    a = feature_vector(power, {"n": 16})
    b = feature_vector(scalar, {"n": 16})
    assert a != b


# ----------------------------------------------------------------------
# kernel invariance (the fast tier must answer identically
# regardless of which exact-path kernel the process is configured with)


@pytest.mark.parametrize("name,source", sorted(PROGRAMS.items()))
def test_features_identical_across_placement_kernels(name, source):
    vectors = {}
    for kernel in ("legacy", "fused"):
        previous = set_placement_kernel(kernel)
        try:
            reset_feature_cache()
            static = extract_static(source, "power")
            vectors[kernel] = (
                static.digest,
                static.base,
                tuple((str(w), vec) for w, vec in static.blocks),
            )
        finally:
            set_placement_kernel(previous)
    assert vectors["legacy"] == vectors["fused"]


@given(
    st.sampled_from(sorted(PROGRAMS)),
    st.integers(0, 200),
    st.integers(0, 200),
    st.sampled_from(["legacy", "fused"]),
)
@settings(max_examples=60, deadline=None)
def test_vector_bit_identical_under_kernel_property(name, n, m, kernel):
    """Property: the full vector at any point is bit-identical whatever
    placement kernel is active -- features never run placement."""
    source = PROGRAMS[name]
    bindings = {"n": n, "m": m, "t": 1}
    reset_feature_cache()
    baseline = feature_vector(extract_static(source, "power"), bindings)
    previous = set_placement_kernel(kernel)
    try:
        reset_feature_cache()
        static = extract_static(source, "power")
        assert feature_vector(static, bindings) == baseline
    finally:
        set_placement_kernel(previous)


@given(st.sampled_from(sorted(PROGRAMS)), st.integers(1, 500),
       st.integers(1, 500))
@settings(max_examples=60, deadline=None)
def test_extraction_deterministic_property(name, n, m):
    source = PROGRAMS[name]
    reset_feature_cache()
    first = feature_vector(extract_static(source, "power"),
                           {"n": n, "m": m, "t": 0})
    reset_feature_cache()
    second = feature_vector(extract_static(source, "power"),
                            {"n": n, "m": m, "t": 0})
    assert first == second
