"""Requisite-variety analysis of regulator-to-system state mappings.

A StateMapping is an arbitrary relation between a regulator's states and
a system's states. Classification recovers the interesting regimes:

* Isomorphic: the pairs form a bijection between the two full state sets;
  regulation is lossless and reversible.
* Underspecified: the regulator has fewer states than the system and maps
  injectively into it; some system states go unreached but every regulator
  state corresponds, so the variety law still holds.
* Aliased: the regulator has more states than the system and every system
  state is covered; surplus regulator states collapse onto shared system
  states and can no longer act as a comparator.
* Mixed: anything else (both uncovered system states and collapsed
  regulator states at once).

The forward map (regulator to system) is the feedforward direction; its
preimage is the feedback direction. They are adjoint by construction.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Hashable


Label = Hashable


@dataclass(frozen=True)
class StateSet:
    """Non-empty collection of pairwise-distinct state labels."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("a state set must be non-empty")
        members = frozenset(self.labels)
        if len(members) != len(self.labels):
            raise ValueError("state labels must be pairwise distinct")
        object.__setattr__(self, "_members", members)  # O(1) membership

    def __contains__(self, label: Label) -> bool:
        return label in self._members

    def __len__(self) -> int:
        return len(self.labels)


def variety(s: StateSet) -> int:
    """Number of distinct states available to the set."""
    return len(s.labels)


class MappingTag(Enum):
    ISOMORPHIC = "Isomorphic"
    UNDERSPECIFIED = "Underspecified"
    ALIASED = "Aliased"
    MIXED = "Mixed"


@dataclass(frozen=True)
class MappingClass:
    tag: MappingTag
    variety_ratio: Fraction


@dataclass(frozen=True)
class StateMapping:
    """Relation between regulator states and system states, as (r, s) pairs."""

    r_states: StateSet
    s_states: StateSet
    pairs: tuple[tuple[Label, Label], ...]

    def __post_init__(self) -> None:
        seen = set()
        for r, s in self.pairs:
            if r not in self.r_states:
                raise ValueError(f"unknown regulator label in pair: {r!r}")
            if s not in self.s_states:
                raise ValueError(f"unknown system label in pair: {s!r}")
            if (r, s) in seen:
                raise ValueError(f"duplicate pair: ({r!r}, {s!r})")
            seen.add((r, s))


def forward_apply(m: StateMapping, r: Label) -> set[Label]:
    """Image of a regulator label under the relation (feedforward)."""
    if r not in m.r_states:
        raise KeyError(f"unknown regulator label: {r!r}")
    return {s for (rr, s) in m.pairs if rr == r}


def inverse_apply(m: StateMapping, s: Label) -> set[Label]:
    """Preimage of a system label under the relation (feedback)."""
    if s not in m.s_states:
        raise KeyError(f"unknown system label: {s!r}")
    return {r for (r, ss) in m.pairs if ss == s}


def classify_mapping(m: StateMapping) -> MappingClass:
    """Assign a capacity regime to the mapping. See the module docstring
    for the four tags; the variety ratio |R| / |S| is always reported."""
    if len(m.pairs) == 0:
        raise ValueError("cannot classify an empty mapping")
    n_r, n_s = len(m.r_states), len(m.s_states)
    ratio = Fraction(n_r, n_s)
    # StateMapping's pairs are distinct and of known labels, so sizes decide.
    r_used, s_used = map(set, zip(*m.pairs))
    every_r_mapped = len(r_used) == n_r
    every_s_covered = len(s_used) == n_s
    injective = len(r_used) == len(s_used) == len(m.pairs)
    if every_r_mapped and every_s_covered and injective:
        return MappingClass(MappingTag.ISOMORPHIC, ratio)
    if every_r_mapped and injective and n_r < n_s:
        return MappingClass(MappingTag.UNDERSPECIFIED, ratio)
    if n_r > n_s and every_s_covered:
        return MappingClass(MappingTag.ALIASED, ratio)
    return MappingClass(MappingTag.MIXED, ratio)


@dataclass(frozen=True)
class VarietyVerdict:
    satisfied: bool
    reason: str | None = None


def requisite_variety_check(m: StateMapping) -> VarietyVerdict:
    """Satisfied unless the mapping is aliased (regulator variety in excess
    of the system's, collapsing the comparator). The reason names the first
    over-covered system label."""
    cls = classify_mapping(m)
    if cls.tag is MappingTag.ALIASED:
        preimages = Counter(s for _, s in m.pairs)
        for s in m.s_states.labels:
            if preimages[s] > 1:
                return VarietyVerdict(False, f"aliasing: system state {s!r} has multiple regulator preimages")
        return VarietyVerdict(False, "aliasing")
    return VarietyVerdict(True)


def load_mapping_csv(path: str | Path) -> StateMapping:
    """Read a mapping from CSV with header ``r_state,s_state``, one pair per
    row. State sets are inferred from the pairs, in first-seen order."""
    pairs: list[tuple[str, str]] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["r_state", "s_state"]:
            raise ValueError(f"expected header 'r_state,s_state', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"expected 2 columns per row, got {row}")
            pairs.append((row[0], row[1]))
    if not pairs:
        raise ValueError("mapping file contains no pairs")
    r_labels = list(dict.fromkeys(r for r, _ in pairs))
    s_labels = list(dict.fromkeys(s for _, s in pairs))
    return StateMapping(
        r_states=StateSet(tuple(r_labels)),
        s_states=StateSet(tuple(s_labels)),
        pairs=tuple(pairs),
    )
