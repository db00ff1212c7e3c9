"""The three bitrade constructions and the Bitrade container."""

import pickle
import time
import tracemalloc
from array import array

import pytest

from bitrades import construct
from bitrades import (
    Bitrade,
    Code,
    HammingParams,
    PERFECT,
    SPHERICAL,
    SearchConfig,
    alt_bitrade,
    check_bitrade,
    definition_check,
    dist2_pair_check,
    lift_to_perfect,
    mds_bitrade,
    min_perfect_volume,
    tensor_combine,
    tensor_power,
)
from bitrades.hamming import CheckedWords
from helpers import (
    alt_reference,
    decode_reference,
    lift_reference,
    mds_reference,
    tensor_reference,
)

ALT3_T0 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
ALT3_T1 = frozenset({(0, 2, 1), (1, 0, 2), (2, 1, 0)})

LIFT3_T0 = frozenset(
    {(0, 1, 2, 0), (1, 2, 0, 0), (2, 0, 1, 0),
     (0, 2, 1, 1), (2, 1, 0, 1), (1, 0, 2, 1)}
)
LIFT3_T1 = frozenset(
    {(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
     (0, 2, 1, 0), (2, 1, 0, 0), (1, 0, 2, 0)}
)


def inversions(word):
    n = len(word)
    return sum(word[i] > word[j] for i in range(n) for j in range(i + 1, n))


def test_alt3_exact_parts():
    b = alt_bitrade(3)
    assert b.params == HammingParams(3, 3)
    assert b.kind == SPHERICAL
    assert b.t0 == ALT3_T0
    assert b.t1 == ALT3_T1


@pytest.mark.parametrize("q,volume", [(3, 3), (4, 12), (5, 60), (6, 360)])
def test_alt_volumes(q, volume):
    b = alt_bitrade(q)
    assert b.volume == volume
    assert len(b.t0) == len(b.t1) == volume


def test_alt_parts_split_permutations_by_parity():
    b = alt_bitrade(5)
    for w in b.t0:
        assert sorted(w) == [0, 1, 2, 3, 4]
        assert inversions(w) % 2 == 0
    for w in b.t1:
        assert sorted(w) == [0, 1, 2, 3, 4]
        assert inversions(w) % 2 == 1


def test_alt_diagonal_symbol_action():
    # relabelling symbols by an even permutation fixes each part;
    # an odd relabelling exchanges them
    b = alt_bitrade(4)
    even = {0: 1, 1: 2, 2: 0, 3: 3}
    odd = {0: 1, 1: 0, 2: 2, 3: 3}

    def act(perm, part):
        return frozenset(tuple(perm[s] for s in w) for w in part)

    assert act(even, b.t0) == b.t0
    assert act(even, b.t1) == b.t1
    assert act(odd, b.t0) == b.t1
    assert act(odd, b.t1) == b.t0


def test_alt_validation():
    with pytest.raises(ValueError, match="q >= 3"):
        alt_bitrade(2)
    with pytest.raises(ValueError):
        alt_bitrade("3")
    with pytest.raises(ValueError):
        alt_bitrade(True)


@pytest.mark.parametrize("q,volume", [(4, 12), (5, 100)])
def test_mds_swap_volumes(q, volume):
    b = mds_bitrade(q, "swap")
    assert b.params == HammingParams(q, q)
    assert b.kind == SPHERICAL
    assert b.volume == volume


@pytest.mark.parametrize("q", [4, 5, 7])
def test_mds_swap_parts_are_code_differences(q):
    # each part satisfies its own weighted check and breaks the other's
    from bitrades.fields import build_field
    from bitrades.linear import ParityCheckCode, rs_mds_code

    f = build_field(q)
    c0 = rs_mds_code(f)
    c1 = ParityCheckCode(f, q, [(1,) * q, (1, 0, *range(2, q))])
    b = mds_bitrade(q, "swap")
    assert all(w in c0 and w not in c1 for w in b.t0)
    assert all(w in c1 and w not in c0 for w in b.t1)


def test_mds_swap_degenerates_for_q3():
    with pytest.raises(ValueError, match="degenerates for q = 3"):
        mds_bitrade(3, "swap")


@pytest.mark.parametrize("q,volume", [(3, 3), (4, 16), (5, 125)])
def test_mds_coset_volumes(q, volume):
    b = mds_bitrade(q, "coset")
    assert b.kind == SPHERICAL
    assert b.volume == volume


def test_mds_coset_gf3_exact_parts():
    b = mds_bitrade(3, "coset")
    assert b.t0 == frozenset({(0, 0, 0), (1, 1, 1), (2, 2, 2)})
    assert b.t1 == frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})


def test_mds_coset_custom_shift():
    b = mds_bitrade(5, "coset", shift=(2, 3, 0, 0, 0))
    assert b.volume == 125
    assert (2, 3, 0, 0, 0) in b.t1


def test_mds_validation():
    with pytest.raises(ValueError, match="not a prime power"):
        mds_bitrade(6)
    with pytest.raises(ValueError, match="unknown variant"):
        mds_bitrade(5, "rotate")
    with pytest.raises(ValueError, match="only applies to the coset variant"):
        mds_bitrade(5, "swap", shift=(1, 4, 0, 0, 0))
    with pytest.raises(ValueError, match="coordinate sum zero"):
        mds_bitrade(5, "coset", shift=(1, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="lies in the base code"):
        mds_bitrade(5, "coset", shift=(0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        mds_bitrade(2)


def test_tensor_combine_volume_and_membership():
    b = alt_bitrade(3)
    t = tensor_combine(b, b)
    assert t.params == HammingParams(6, 3)
    assert t.kind == SPHERICAL
    assert t.volume == 2 * 3 * 3
    # straight pairs land in t0, mixed pairs in t1
    assert (0, 1, 2, 0, 1, 2) in t.t0
    assert (0, 2, 1, 1, 0, 2) in t.t0
    assert (0, 1, 2, 0, 2, 1) in t.t1
    assert (0, 2, 1, 1, 2, 0) in t.t1


def test_tensor_combine_mixed_alphabets_rejected():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        tensor_combine(alt_bitrade(3), alt_bitrade(4))


def test_tensor_combine_needs_spherical_inputs():
    lifted = lift_to_perfect(alt_bitrade(3))
    with pytest.raises(ValueError, match="only spherical bitrades combine"):
        tensor_combine(lifted, alt_bitrade(3))


def test_tensor_of_mds_pair():
    t = tensor_combine(mds_bitrade(4, "swap"), mds_bitrade(4, "swap"))
    assert t.params == HammingParams(8, 4)
    assert t.volume == 2 * 12 * 12


def test_tensor_power():
    b = alt_bitrade(3)
    assert tensor_power(b, 1) is b
    cubed = tensor_power(b, 3)
    assert cubed.params == HammingParams(9, 3)
    assert cubed.volume == 4 * 27
    with pytest.raises(ValueError, match="r >= 1"):
        tensor_power(b, 0)


@pytest.mark.parametrize("q,volume", [(3, 6), (4, 24), (5, 120)])
def test_lift_volumes(q, volume):
    lifted = lift_to_perfect(alt_bitrade(q))
    assert lifted.params == HammingParams(q + 1, q)
    assert lifted.kind == PERFECT
    assert lifted.volume == volume


def test_lift_exact_parts():
    lifted = lift_to_perfect(alt_bitrade(3))
    assert lifted.t0 == LIFT3_T0
    assert lifted.t1 == LIFT3_T1


def test_lift_of_tensor_volumes():
    b = alt_bitrade(3)
    assert lift_to_perfect(tensor_combine(b, b)).volume == 36
    assert lift_to_perfect(tensor_power(b, 3)).volume == 216


def test_lift_rejects_perfect_input():
    lifted = lift_to_perfect(alt_bitrade(3))
    with pytest.raises(ValueError, match="can only lift spherical"):
        lift_to_perfect(lifted)


def test_bitrade_rejects_overlapping_parts():
    p = HammingParams(3, 3)
    with pytest.raises(ValueError, match="disjoint"):
        Bitrade(p, SPHERICAL, frozenset({(0, 1, 2)}), frozenset({(0, 1, 2)}))


def test_bitrade_rejects_infeasible_parameters():
    with pytest.raises(ValueError, match="only when q divides n"):
        Bitrade(HammingParams(4, 3), SPHERICAL, frozenset(), frozenset())
    with pytest.raises(ValueError, match=r"only when n = 1 \(mod q\)"):
        Bitrade(HammingParams(5, 3), PERFECT, frozenset(), frozenset())


@pytest.mark.parametrize("q", range(2, 8))
@pytest.mark.parametrize("n", range(1, 13))
def test_existence_follows_n_mod_q(n, q):
    # the rule read off the spectrum, restated from n and q alone
    fits = {0: SPHERICAL, 1: PERFECT}.get(n % q)
    texts = {
        SPHERICAL: ("a multiple of q", 0, "q divides n"),
        PERFECT: ("1 (mod q)", -1, "n = 1 (mod q)"),
    }
    p = HammingParams(n, q)
    if fits is None:
        with pytest.raises(ValueError) as refused:
            construct.bitrade_kind(p)
        assert str(refused.value) == (
            f"no bitrade parameters fit H({n}, {q}): n must be 1 (mod q) for "
            f"perfect bitrades or a multiple of q for spherical bitrades"
        )
    else:
        assert construct.bitrade_kind(p) == fits
    for kind, (need, value, when) in texts.items():
        if kind == fits:
            assert construct.bitrade_kind(p, kind) == kind
            continue
        with pytest.raises(ValueError) as refused:
            construct.bitrade_kind(p, kind)
        assert str(refused.value) == (
            f"no {kind} bitrade exists in H({n}, {q}): n must be {need}, since the parts' "
            f"indicator difference would be an eigenfunction for {value}, and {value} is "
            f"among the eigenvalues n(q-1) - q*i only when {when}"
        )


def test_bitrade_rejects_bad_kind_and_words():
    p = HammingParams(3, 3)
    for refused in (
        lambda: Bitrade(p, "orbital", frozenset(), frozenset()),
        lambda: construct.bitrade_kind(p, "foo"),  # once a KeyError
    ):
        with pytest.raises(ValueError, match="kind must be one of"):
            refused()
    with pytest.raises(ValueError):
        Bitrade(p, SPHERICAL, frozenset({(0, 1, 3)}), frozenset())


def test_bitrade_allows_unequal_part_sizes():
    # verification catches imbalance; the container only checks structure
    b = Bitrade(HammingParams(3, 3), SPHERICAL, ALT3_T0, frozenset())
    assert b.volume == 3
    assert len(b.t1) == 0


def test_bitrade_helpers():
    b = alt_bitrade(3)
    t0_sorted, t1_sorted = b.sorted_parts()
    assert t0_sorted == sorted(ALT3_T0)
    assert t1_sorted == sorted(ALT3_T1)


# Each construction refuses, before it enumerates a word, a volume above
# the construction ceiling: q!/2 for alt, 2^(r-1) v^r for a tensor power.
# The MDS volumes depend on q alone, so GF(q) is never built for a refusal.
@pytest.mark.parametrize("build,what", [
    (lambda: alt_bitrade(11), r"alt_bitrade\(11\)"),
    (lambda: tensor_power(alt_bitrade(5), 4), "4-fold tensor power of a volume-60"),
    (lambda: mds_bitrade(11, "swap"), "mds_bitrade"),
    (lambda: mds_bitrade(11, "coset"), "mds_bitrade"),
    (lambda: mds_bitrade(509), r"mds_bitrade\(509, 'swap'\)"),
    (lambda: mds_bitrade(1000), r"mds_bitrade\(1000, 'swap'\)"),
])
def test_oversized_constructions_are_refused_at_once(monkeypatch, build, what):
    def no_field(q):
        raise AssertionError(f"GF({q}) was built for a refused construction")

    monkeypatch.setattr(construct, "build_field", no_field)
    started = time.perf_counter()
    refusal = f"^refusing .*{what}.*: too many words in each part; the ceiling is 2\\*\\*19$"
    with pytest.raises(ValueError, match=refusal):
        build()
    assert time.perf_counter() - started < 1.0


def test_construction_ceiling_is_one_bound_on_volume(monkeypatch):
    monkeypatch.setattr(construct, "CONSTRUCTION_CEILING", 60)
    alt5 = alt_bitrade(5)
    assert alt5.volume == 60
    with pytest.raises(ValueError, match=r"alt_bitrade\(6\)"):
        alt_bitrade(6)
    with pytest.raises(ValueError, match="lifting a volume-60"):
        lift_to_perfect(alt5)
    alt3 = alt_bitrade(3)
    square = tensor_combine(alt3, alt3)
    assert square.volume == tensor_power(alt3, 2).volume == 18
    with pytest.raises(ValueError, match="combining volumes 3 and 18"):
        tensor_combine(alt3, square)
    with pytest.raises(ValueError, match="3-fold tensor power of a volume-3"):
        tensor_power(alt3, 3)


# ---------------------------------------------------------------------------
# checked word sets: derived parts inherit the check, everything else gets a full pass

DERIVED = {
    **{f"alt{q}": lambda q=q: alt_bitrade(q) for q in range(3, 7)},
    **{
        f"mds{q}-{variant}": lambda q=q, variant=variant: mds_bitrade(q, variant)
        for q in (4, 5, 7)
        for variant in ("swap", "coset")
    },
    "tensor": lambda: tensor_combine(alt_bitrade(3), mds_bitrade(3, "coset")),
    "lift": lambda: lift_to_perfect(alt_bitrade(4)),
    "prove": lambda: min_perfect_volume(SearchConfig(HammingParams(4, 3))).best,
}


@pytest.mark.parametrize("build", DERIVED.values(), ids=DERIVED.keys())
def test_derived_parts_are_checked_sets_of_words(build):
    b = build()
    for part in (b.t0, b.t1):
        assert isinstance(part, CheckedWords) and part.params == b.params
        assert b.params.check_words(part) is part
        # word by word, without check_words
        assert all(type(w) is tuple and b.params.contains(w) for w in part)


# each derived bitrade's parts, built here from tuples (the search result's from its ids,
# decoded one by one)
REFERENCES = {
    **{f"alt{q}": lambda b, q=q: alt_reference(q) for q in range(3, 7)},
    **{
        f"mds{q}-{variant}": lambda b, q=q, variant=variant: mds_reference(q, variant)
        for q in (4, 5, 7)
        for variant in ("swap", "coset")
    },
    "tensor": lambda b: tensor_reference(alt_reference(3), mds_reference(3, "coset")),
    "lift": lambda b: lift_reference(*alt_reference(4)),
    "prove": lambda b: tuple({decode_reference(b.params, x) for x in part.ids} for part in (b.t0, b.t1)),
}


@pytest.mark.parametrize("name", DERIVED.keys())
def test_derived_parts_decode_to_their_words(name):
    b = DERIVED[name]()
    for part, reference in zip((b.t0, b.t1), REFERENCES[name](b)):
        # iteration decodes in id order, which is word order
        assert list(part) == sorted(reference)
        assert part == reference and len(part) == len(reference)
        assert all(word in part for word in reference)


def test_a_built_bitrade_holds_its_parts_as_ids():
    mds_bitrade(7, "coset")  # GF(7) is built once and kept
    tracemalloc.start()
    try:
        b = mds_bitrade(7, "coset")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # two parts of 16,807 ids take about 263 KiB; as frozensets of tuples they took 3.9 MiB
    assert b.volume == 7**5 and held < 2**20


def test_membership_is_word_equality():
    b = alt_bitrade(3)
    assert (0, 1, 2) in b.t0 and (0, True, 2) in b.t0  # True == 1, as in a frozenset
    for absent in [(0, 2, 1), (0, 1), (0, 1, 2, 0), (0, 1, 3), (0, -1, 2), (0, "1", 2), [0, 1, 2]]:
        assert absent not in b.t0
    assert hash(b.t0) == hash(ALT3_T0) and b.t0 == ALT3_T0 and ALT3_T0 == b.t0
    assert b.t0 != ALT3_T1 and b.t0 != list(ALT3_T0)
    assert repr(b.t0) == "CheckedWords({(0, 1, 2), (1, 2, 0), (2, 0, 1)})"
    with pytest.raises(AttributeError):
        b.t0.ids = array("q")


H33 = HammingParams(3, 3)


# A word set's refusals, wherever it enters: the message each gives.
@pytest.mark.parametrize("call,message", [
    (lambda: Bitrade(H33, SPHERICAL, [(0, 1, 2), (0, 1, 3)], []),
     r"^\(0, 1, 3\) is not a word of H\(3, 3\)$"),
    (lambda: Bitrade(H33, SPHERICAL, [(1, 1, 1)], [(0, 1, 2), (0, True, 2)]),
     r"^\(0, True, 2\) is not a word of H\(3, 3\)$"),
    (lambda: Bitrade(H33, SPHERICAL, [(2, 2, 2), (0, 1, 2), (1, 1, 1)], [(1, 1, 1), (0, 1, 2)]),
     r"^parts must be disjoint; 2 shared words, e.g. \(0, 1, 2\)$"),
    (lambda: pickle.loads(pickle.dumps(CheckedWords(H33, array("q", [5, 3])))),
     r"^pickled ids must be increasing vertex ids of H\(3, 3\)$"),
    (lambda: pickle.loads(pickle.dumps(CheckedWords(H33, array("q", [3, 3])))),
     r"^pickled ids must be increasing vertex ids of H\(3, 3\)$"),
    (lambda: pickle.loads(pickle.dumps(CheckedWords(H33, array("q", [0, 27])))),
     r"^pickled ids must be increasing vertex ids of H\(3, 3\)$"),
    (lambda: pickle.loads(pickle.dumps(CheckedWords(H33, array("q", [-1, 0])))),
     r"^pickled ids must be increasing vertex ids of H\(3, 3\)$"),
], ids=["bad", "bool-twin", "shared", "pickled-unsorted", "pickled-repeat", "pickled-range",
        "pickled-negative"])
def test_word_set_refusals_are_pinned(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_set_checked_for_another_graph_is_checked_again():
    words = HammingParams(4, 3).check_words([(0, 1, 2, 0), (1, 1, 0, 0)])
    message = r"^\(0, 1, 2, 0\) is not a word of H\(4, 2\)$"
    with pytest.raises(ValueError, match=message):
        HammingParams(4, 2).check_words(words)
    with pytest.raises(ValueError, match=message):
        Code(HammingParams(4, 2), words)
    fits = HammingParams(4, 2).check_words(words - {(0, 1, 2, 0)})
    assert fits.params == HammingParams(4, 2) and fits == {(1, 1, 0, 0)}


def test_set_algebra_returns_plain_frozensets():
    b = alt_bitrade(4)
    for derived in (b.t0 | b.t1, b.t0 & b.t1, b.t0 - b.t1):
        assert type(derived) is frozenset
        assert b.params.check_words(derived) is not derived


def test_a_pickled_bitrade_comes_back_equal():
    for b in (mds_bitrade(4, "coset"), lift_to_perfect(alt_bitrade(3))):
        back = pickle.loads(pickle.dumps(b))
        assert back == b
        assert all(isinstance(part, CheckedWords) and part.params == b.params
                   for part in (back.t0, back.t1))


@pytest.fixture
def full_passes(monkeypatch):
    """The inputs of every check_words call that made a full pass, i.e. returned a new set."""
    passed = []
    check = HammingParams.check_words

    def spy(self, words):
        checked = check(self, words)
        if checked is not words:
            passed.append(words)
        return checked

    monkeypatch.setattr(HammingParams, "check_words", spy)
    return passed


# each consumer of a bitrade's parts, and how many full passes it makes over plain copies
CONSUMERS = {
    "definition": (lambda b: definition_check(b.params, b.kind, b.t0, b.t1), 2),
    "dist2": (lambda b: dist2_pair_check(b.params, b.kind, b.t0, b.t1), 2),
    "code": (lambda b: (Code(b.params, b.t0), Code(b.params, b.t1)), 2),
    "check_bitrade": (check_bitrade, 2),
}


@pytest.mark.parametrize("consume,plain_passes", CONSUMERS.values(), ids=CONSUMERS.keys())
def test_checked_parts_are_not_checked_again(full_passes, consume, plain_passes):
    b = mds_bitrade(5, "swap")
    full_passes.clear()  # the code's check rows
    consume(b)
    assert full_passes == []
    # a Bitrade holding plain copies, as one unpickled from an older version would
    plain = Bitrade(b.params, b.kind, [], [])
    object.__setattr__(plain, "t0", frozenset(b.t0))
    object.__setattr__(plain, "t1", frozenset(b.t1))
    full_passes.clear()
    consume(plain)
    assert len(full_passes) == plain_passes
    assert all(words is plain.t0 or words is plain.t1 for words in full_passes)
