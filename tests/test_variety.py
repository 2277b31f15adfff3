"""State-mapping classification and the variety law."""

import itertools

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from regulab.variety import (
    MappingTag,
    StateMapping,
    StateSet,
    classify_mapping,
    forward_apply,
    inverse_apply,
    load_mapping_csv,
    requisite_variety_check,
    variety,
)


def mapping(r_labels, s_labels, pairs):
    return StateMapping(
        r_states=StateSet(tuple(r_labels)),
        s_states=StateSet(tuple(s_labels)),
        pairs=tuple(pairs),
    )


# --- variety counting -------------------------------------------------------


def test_variety_counts_labels():
    assert variety(StateSet(("a",))) == 1
    assert variety(StateSet(tuple("abcdef"))) == 6


def test_capacity_scenario_counts():
    # Small-regulator scenario: 3 regulator states against 6 system states.
    small = mapping("rst", "abcdef", [("r", "a"), ("s", "b"), ("t", "c")])
    assert variety(small.r_states) == 3
    assert variety(small.s_states) == 6
    # Oversized-regulator scenario: 20 regulator states against 3 system states.
    big_r = [f"r{i}" for i in range(20)]
    big = mapping(big_r, "xyz", [(r, "xyz"[i % 3]) for i, r in enumerate(big_r)])
    assert variety(big.r_states) == 20
    assert variety(big.s_states) == 3


# --- forward / inverse -------------------------------------------------------


def test_identity_forward():
    m = mapping("ab", "ab", [("a", "a"), ("b", "b")])
    assert forward_apply(m, "a") == {"a"}
    assert inverse_apply(m, "b") == {"b"}


def test_one_to_many_forward():
    m = mapping(["r1"], ["s1", "s2"], [("r1", "s1"), ("r1", "s2")])
    assert forward_apply(m, "r1") == {"s1", "s2"}


def test_unknown_label_errors_name_the_label():
    m = mapping("ab", "ab", [("a", "a")])
    with pytest.raises(KeyError, match="zzz"):
        forward_apply(m, "zzz")
    with pytest.raises(KeyError, match="qqq"):
        inverse_apply(m, "qqq")


def test_bijection_round_trip():
    labels = list("abcde")
    m = mapping(labels, labels, [(x, x) for x in labels])
    for r in labels:
        (s,) = forward_apply(m, r)
        assert inverse_apply(m, s) == {r}


@settings(max_examples=60)
@given(st.data())
def test_adjointness_random_relations(data):
    n_r = data.draw(st.integers(1, 6))
    n_s = data.draw(st.integers(1, 6))
    r_labels = [f"r{i}" for i in range(n_r)]
    s_labels = [f"s{i}" for i in range(n_s)]
    all_pairs = list(itertools.product(r_labels, s_labels))
    chosen = data.draw(
        st.lists(st.sampled_from(all_pairs), min_size=1, unique=True, max_size=len(all_pairs))
    )
    m = mapping(r_labels, s_labels, chosen)
    for r in r_labels:
        for s in s_labels:
            assert (s in forward_apply(m, r)) == (r in inverse_apply(m, s))


# --- classification -----------------------------------------------------------


def test_underspecified_scenario():
    m = mapping("rst", "abcdef", [("r", "a"), ("s", "b"), ("t", "c")])
    cls = classify_mapping(m)
    assert cls.tag is MappingTag.UNDERSPECIFIED
    assert cls.variety_ratio == Fraction(1, 2)
    assert requisite_variety_check(m).satisfied


def test_aliased_scenario():
    big_r = [f"r{i}" for i in range(20)]
    m = mapping(big_r, "xyz", [(r, "xyz"[i % 3]) for i, r in enumerate(big_r)])
    cls = classify_mapping(m)
    assert cls.tag is MappingTag.ALIASED
    assert cls.variety_ratio == Fraction(20, 3)
    verdict = requisite_variety_check(m)
    assert not verdict.satisfied
    assert "aliasing" in verdict.reason


def test_isomorphic_identity():
    labels = list("abcde")
    m = mapping(labels, labels, [(x, x) for x in labels])
    cls = classify_mapping(m)
    assert cls.tag is MappingTag.ISOMORPHIC
    assert cls.variety_ratio == Fraction(1, 1)
    assert requisite_variety_check(m).satisfied


def test_mixed_when_both_failures_present():
    # r0 and r1 collapse onto s0 while s1..s3 are uncovered and r2 unmapped.
    m = mapping(["r0", "r1", "r2"], ["s0", "s1", "s2", "s3"], [("r0", "s0"), ("r1", "s0")])
    assert classify_mapping(m).tag is MappingTag.MIXED


def oracle_tag(r_labels, s_labels, pairs):
    """The tag read off the module docstring's definitions, one by one."""
    image = [s for _, s in pairs]
    preimage = [r for r, _ in pairs]
    every_r_mapped = set(preimage) == set(r_labels)
    every_s_covered = set(image) == set(s_labels)
    one_to_one = len(set(preimage)) == len(pairs) == len(set(image))
    if every_r_mapped and every_s_covered and one_to_one:
        return MappingTag.ISOMORPHIC
    if len(r_labels) < len(s_labels) and every_r_mapped and one_to_one:
        return MappingTag.UNDERSPECIFIED
    if len(r_labels) > len(s_labels) and every_s_covered:
        return MappingTag.ALIASED
    return MappingTag.MIXED


def test_every_small_mapping_matches_the_definitions():
    seen = set()
    for n_r, n_s in itertools.product(range(1, 4), repeat=2):
        r_labels = [f"r{i}" for i in range(n_r)]
        s_labels = [f"s{j}" for j in range(n_s)]
        grid = list(itertools.product(r_labels, s_labels))
        for k in range(1, len(grid) + 1):
            for pairs in itertools.combinations(grid, k):
                cls = classify_mapping(mapping(r_labels, s_labels, pairs))
                assert cls.tag is oracle_tag(r_labels, s_labels, pairs), pairs
                assert cls.variety_ratio == Fraction(n_r, n_s)
                seen.add(cls.tag)
    assert seen == set(MappingTag)


def test_empty_mapping_rejected():
    with pytest.raises(ValueError):
        classify_mapping(mapping("a", "b", []))


@settings(max_examples=40)
@given(st.data())
def test_relabeling_preserves_class(data):
    n_r = data.draw(st.integers(1, 5))
    n_s = data.draw(st.integers(1, 5))
    r_labels = [f"r{i}" for i in range(n_r)]
    s_labels = [f"s{i}" for i in range(n_s)]
    all_pairs = list(itertools.product(r_labels, s_labels))
    chosen = data.draw(
        st.lists(st.sampled_from(all_pairs), min_size=1, unique=True, max_size=len(all_pairs))
    )
    m = mapping(r_labels, s_labels, chosen)
    r_perm = data.draw(st.permutations(r_labels))
    s_perm = data.draw(st.permutations(s_labels))
    r_map = dict(zip(r_labels, r_perm))
    s_map = dict(zip(s_labels, s_perm))
    renamed = mapping(
        [r_map[r] for r in r_labels],
        [s_map[s] for s in s_labels],
        [(r_map[r], s_map[s]) for r, s in chosen],
    )
    assert classify_mapping(renamed).tag is classify_mapping(m).tag


def test_isomorphic_always_satisfies_variety_law():
    for n in range(1, 7):
        labels = [f"x{i}" for i in range(n)]
        m = mapping(labels, labels, [(x, x) for x in labels])
        assert requisite_variety_check(m).satisfied


# --- CSV loading ----------------------------------------------------------------


def test_load_mapping_csv(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("r_state,s_state\nr1,s1\nr1,s2\nr2,s1\n", encoding="utf-8")
    m = load_mapping_csv(p)
    assert forward_apply(m, "r1") == {"s1", "s2"}
    assert inverse_apply(m, "s1") == {"r1", "r2"}


def test_load_mapping_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "pairs.csv"
    p.write_text("from,to\na,b\n", encoding="utf-8")
    with pytest.raises(ValueError, match="r_state"):
        load_mapping_csv(p)
