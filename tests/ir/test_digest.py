"""Canonical content hashing of programs."""

from repro.ir import parse_program, program_digest, source_digest

BASE = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
  end do
end
"""

# The same program with noisy formatting and split declarations.
REFORMATTED = """
program saxpy
  integer n
  integer i
  real x(n)
  real y(n)
  real alpha

  do i = 1, n
      y(i)   = y(i) + alpha*x(i)
  end do
end
"""

RENAMED_INDEX = """
program saxpy
  integer n, j
  real x(n), y(n), alpha
  do j = 1, n
    y(j) = y(j) + alpha * x(j)
  end do
end
"""

EXTRA_STATEMENT = """
program saxpy
  integer n, i
  real x(n), y(n), alpha
  do i = 1, n
    y(i) = y(i) + alpha * x(i)
    x(i) = y(i)
  end do
end
"""


def test_digest_is_stable():
    program = parse_program(BASE)
    assert program_digest(program) == program_digest(program)
    assert program_digest(program) == program_digest(parse_program(BASE))


def test_digest_shape():
    digest = program_digest(parse_program(BASE))
    assert len(digest) == 64
    assert all(c in "0123456789abcdef" for c in digest)


def test_structurally_equal_programs_collide():
    assert (program_digest(parse_program(BASE))
            == program_digest(parse_program(REFORMATTED)))


def test_variants_do_not_collide():
    base = program_digest(parse_program(BASE))
    assert base != program_digest(parse_program(RENAMED_INDEX))
    assert base != program_digest(parse_program(EXTRA_STATEMENT))


def test_different_name_different_digest():
    renamed = BASE.replace("program saxpy", "program daxpy")
    assert (program_digest(parse_program(BASE))
            != program_digest(parse_program(renamed)))


def test_source_digest_is_raw():
    assert source_digest("a") != source_digest("a ")


# ----------------------------------------------------------------------
# structural statement digests (the search's seen-set key)


def test_stmts_digest_matches_structural_equality():
    from repro.ir import stmts_digest

    base = parse_program(BASE)
    assert stmts_digest(base.body) == stmts_digest(parse_program(BASE).body)
    assert (stmts_digest(base.body)
            == stmts_digest(parse_program(REFORMATTED).body))


def test_stmts_digest_separates_variants():
    from repro.ir import stmts_digest

    base = stmts_digest(parse_program(BASE).body)
    assert base != stmts_digest(parse_program(RENAMED_INDEX).body)
    assert base != stmts_digest(parse_program(EXTRA_STATEMENT).body)


def test_stmts_digest_ignores_declarations_and_name():
    """Unlike program_digest, only the executable body is hashed."""
    from repro.ir import stmts_digest

    renamed = BASE.replace("program saxpy", "program daxpy")
    assert (stmts_digest(parse_program(BASE).body)
            == stmts_digest(parse_program(renamed).body))


def test_stmts_digest_is_order_sensitive():
    from repro.ir import stmts_digest

    two = parse_program(EXTRA_STATEMENT)
    loop = two.body[0]
    forward = stmts_digest(loop.body)
    backward = stmts_digest(list(reversed(loop.body)))
    assert forward != backward


def test_node_digest_memo_survives_shared_subtrees():
    """Shared subtrees hash once; digests stay correct and distinct."""
    from repro.ir import node_digest

    loop = parse_program(BASE).body[0]
    first = node_digest(loop)
    assert node_digest(loop) == first            # kept on the node
    other = parse_program(EXTRA_STATEMENT).body[0]
    assert node_digest(other) != first


# ----------------------------------------------------------------------
# digests kept on the nodes

#: Digests recorded while an id-keyed memo still held them, so keeping
#: each digest on its node changed no value.
KERNEL_DIGESTS = {
    "f1": "5a33671bad3223075a4885fd06282827",
    "f2": "a272d198564f589a7731baad510159c8",
    "f3": "7bf4cc8bf2e5bc971372f91ec9f8ef4b",
    "f4": "f0a59be3499a169499c3994f91b2c443",
    "f5": "3b2bb1130c32f4c188f419323f53e889",
    "f6": "2942bed1868cd126c39e12ecec2bd7f7",
    "f7": "0e45ab0cb9caa66ead5143f519ddd0cd",
    "matmul": "38bccb83b66b072cd6f3cea586a84b92",
    "jacobi": "6102d8041772feb3c2fda95996cc90ba",
    "rb": "90121d8104d566e8224141d8681f91be",
}

#: SHA-256 over the ordered digests of every depth-1 and depth-2
#: candidate of the seed-0 random loops with 3-6 statements.
CANDIDATES_SHA256 = (
    "a405587015b60bb2fb2e1076e525eab5433f6b03cb22845403833fdc96dbd3cb")

#: Every node kind: a stepped loop, If/else, logical and relational
#: operators, unary minus and .not., a real constant, an intrinsic call,
#: a power, and a subroutine call.
ALL_KINDS = """
program allkinds
  integer n, i, k
  real x(n), y(n), s
  do i = 1, n, 2
    if (x(i) .gt. 0.5 .and. .not. (y(i) .lt. -1.25)) then
      y(i) = sqrt(x(i)) ** 2 - s
    else
      k = -i
    end if
  end do
  call update(x, n)
end
"""


def test_digests_match_recorded_values():
    import hashlib

    from repro.bench import kernel, kernel_names
    from repro.bench.workloads import random_block_program
    from repro.ir import node_digest, stmts_digest
    from repro.service.engine import _restructure_transformations

    assert {name: stmts_digest(kernel(name).program.body)
            for name in kernel_names()} == KERNEL_DIGESTS

    body = parse_program(ALL_KINDS).body
    assert stmts_digest(body) == "994d4192e0c63fcb15ad4d65743e4a38"
    assert [node_digest(s) for s in body] == [
        "b75e608ea4a2d20ee5b7b1e066e5e9ef",
        "7313552baa0212227bdcd2591d1c49d2"]

    digests = []
    for size in (3, 4, 5, 6):
        level = [random_block_program(size, seed=0)]
        for _ in range(2):
            children = []
            for prog in level:
                for transformation in _restructure_transformations():
                    for site in transformation.sites(prog):
                        candidate = transformation.apply(prog, site)
                        digests.append(stmts_digest(candidate.body))
                        children.append(candidate)
            level = children
    assert len(digests) == 48
    assert (hashlib.sha256("\n".join(digests).encode()).hexdigest()
            == CANDIDATES_SHA256)


def test_search_candidates_die_with_the_search():
    """Nothing outlives the search to pin the candidates it digested."""
    import gc
    import weakref

    from repro.aggregate import CostAggregator
    from repro.ir import SymbolTable
    from repro.machine import power_machine
    from repro.transform import IncrementalPredictor, Unroll, astar_search

    refs = []

    class RecordingUnroll(Unroll):
        def apply(self, program, site):
            candidate = super().apply(program, site)
            refs.extend(weakref.ref(stmt) for stmt in candidate.body)
            return candidate

    program = parse_program(EXTRA_STATEMENT)
    predictor = IncrementalPredictor(
        CostAggregator(power_machine(), SymbolTable.from_program(program)))
    result = astar_search(program, [RecordingUnroll(factors=(2, 4))],
                          predictor, workload={"n": 256}, max_depth=2,
                          max_nodes=8)
    assert result.sequence and refs
    del result, predictor
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_pickled_program_digests_identically():
    import pickle

    from repro.ir import stmts_digest

    program = parse_program(EXTRA_STATEMENT)
    digest = stmts_digest(program.body)
    restored = pickle.loads(pickle.dumps(program))
    assert restored == program
    assert stmts_digest(restored.body) == digest
    fresh = pickle.loads(pickle.dumps(parse_program(EXTRA_STATEMENT)))
    assert stmts_digest(fresh.body) == digest


def test_threads_digesting_one_fresh_tree_agree():
    """Threads racing to set one node's digest all read one value."""
    import sys
    import threading

    from repro.bench import kernel
    from repro.ir import stmts_digest

    source = kernel("matmul").source
    expected = stmts_digest(parse_program(source).body)
    body = parse_program(source).body
    start = threading.Barrier(8)
    seen = []

    def digest():
        start.wait(timeout=30)
        seen.append(stmts_digest(body))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=digest) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [expected] * 8
