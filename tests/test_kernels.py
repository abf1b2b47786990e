"""The kernels against fixed answers and brute-force recomputation."""

from hypothesis import given, settings
import hypothesis.strategies as st

from nfacomp import core
from nfacomp._kernels import backend_name
from nfacomp._kernels import pure


def test_backend_name():
    assert backend_name() == "pure"


def test_explore_subsets_frozen():
    # One state with an 'a' self-loop: the only reachable subset is {0}.
    assert pure.explore_subsets(1, 1, [1], (1,)) == ([1], [0])
    # Chain 0 -a-> 1: macrostates {0}, {1}, then {} as the sink.
    macros, delta = pure.explore_subsets(2, 1, [2, 0], (1,))
    assert macros == [1, 2, 0]
    assert delta == [1, 2, 2]


def test_explore_subsets_budget_returns_none():
    a = core.Nfa.build(("a", "b"), 3, [(0, "a", 1), (0, "b", 2)], {0}, {2})
    assert pure.explore_subsets(3, 2, a.succ_masks, (1,), 2) is None


@given(st.integers(1, 5), st.data())
def test_word_signature_is_lengthlex_acceptance(n, data):
    k = data.draw(st.integers(1, 2))
    succ = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(k * n)]
    init = data.draw(st.integers(0, (1 << n) - 1))
    final = data.draw(st.integers(0, (1 << n) - 1))
    sig = pure.word_signature(n, k, succ, init, final, 3)
    # Recompute by explicit BFS over words in the same order.
    bits = []
    level = [init]
    for _ in range(3 + 1):
        nxt = []
        for mask in level:
            bits.append(1 if mask & final else 0)
            step = []
            for sym in range(k):
                out = 0
                m = mask
                while m:
                    q = (m & -m).bit_length() - 1
                    out |= succ[sym * n + q]
                    m &= m - 1
                step.append(out)
            nxt.extend(step)
        level = nxt
    assert sig == bytes(bits[: len(sig)]) and len(sig) == sum(
        k**i for i in range(4)
    )
