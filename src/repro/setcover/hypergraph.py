"""The set-system (hypergraph) container used by the cover solvers.

A :class:`SetSystem` is an indexed family of subsets over an implicit
universe (the union of all member sets).  In the RAF pipeline the family is
the multiset of type-1 backward traces ``{t(g_1), ..., t(g_k)}``; since the
same trace is typically sampled many times, the system supports weighted
deduplication, which both shrinks the solver input and preserves the
"cover at least p realizations" semantics exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

from repro.exceptions import SetCoverError
from repro.types import NodeId

__all__ = ["SetSystem"]


class SetSystem:
    """An indexed family of finite sets with optional multiplicities.

    Parameters
    ----------
    sets:
        The member subsets, in order.  Each is stored as a frozenset.
    weights:
        Optional positive integer multiplicities, one per set (default 1).
        A weight ``w`` means the set represents ``w`` identical sampled
        realizations.
    """

    __slots__ = ("_sets", "_weights", "_universe")

    def __init__(
        self,
        sets: Iterable[Iterable[NodeId]],
        weights: Sequence[int] | None = None,
    ) -> None:
        self._sets: list[frozenset] = [frozenset(member) for member in sets]
        if weights is None:
            self._weights: list[int] = [1] * len(self._sets)
        else:
            weight_list = [int(w) for w in weights]
            if len(weight_list) != len(self._sets):
                raise SetCoverError(
                    f"{len(weight_list)} weights given for {len(self._sets)} sets"
                )
            if any(w <= 0 for w in weight_list):
                raise SetCoverError("set weights must be positive integers")
            self._weights = weight_list
        universe: set[NodeId] = set()
        for member in self._sets:
            universe.update(member)
        self._universe: frozenset = frozenset(universe)

    # ------------------------------------------------------------------ #
    # Basic access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._sets)

    def __getitem__(self, index: int) -> frozenset:
        return self._sets[index]

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"<SetSystem sets={len(self._sets)} total_weight={self.total_weight} "
            f"universe={len(self._universe)}>"
        )

    @property
    def num_sets(self) -> int:
        """The number of (distinct index positions of) member sets."""
        return len(self._sets)

    @property
    def total_weight(self) -> int:
        """The total multiplicity across all member sets."""
        return sum(self._weights)

    @property
    def universe(self) -> frozenset:
        """The union of all member sets."""
        return self._universe

    def weight(self, index: int) -> int:
        """Multiplicity of the set at ``index``."""
        return self._weights[index]

    def weights(self) -> tuple[int, ...]:
        """All multiplicities, in index order."""
        return tuple(self._weights)

    def sets(self) -> tuple[frozenset, ...]:
        """All member sets, in index order."""
        return tuple(self._sets)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def union_of(self, indices: Iterable[int]) -> frozenset:
        """Union of the sets at the given indices."""
        result: set[NodeId] = set()
        for index in indices:
            result.update(self._sets[index])
        return frozenset(result)

    def weight_of(self, indices: Iterable[int]) -> int:
        """Total multiplicity of the sets at the given indices."""
        return sum(self._weights[index] for index in indices)

    def covered_indices(self, nodes: Iterable[NodeId]) -> tuple[int, ...]:
        """Indices of member sets fully contained in ``nodes``."""
        chosen = nodes if isinstance(nodes, (set, frozenset)) else frozenset(nodes)
        return tuple(index for index, member in enumerate(self._sets) if member <= chosen)

    def covered_weight(self, nodes: Iterable[NodeId]) -> int:
        """Total multiplicity of member sets fully contained in ``nodes``.

        This is exactly ``F(B_l, I)`` of the paper when the system holds the
        type-1 traces with multiplicities.
        """
        chosen = nodes if isinstance(nodes, (set, frozenset)) else frozenset(nodes)
        return sum(
            weight for member, weight in zip(self._sets, self._weights) if member <= chosen
        )

    def element_frequencies(self) -> dict:
        """Map each universe element to the total weight of sets containing it."""
        frequencies: dict[NodeId, int] = {}
        for member, weight in zip(self._sets, self._weights):
            for element in member:
                frequencies[element] = frequencies.get(element, 0) + weight
        return frequencies

    def inverted_index(self) -> dict:
        """Map each universe element to the list of set indices containing it."""
        index: dict[NodeId, list[int]] = {}
        for position, member in enumerate(self._sets):
            for element in member:
                index.setdefault(element, []).append(position)
        return index

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #

    def deduplicate(self) -> "SetSystem":
        """Collapse identical member sets, accumulating their multiplicities.

        The returned system represents the same multiset of realizations;
        covering one copy of a distinct set covers all of them, so every
        cover-related quantity (``covered_weight`` in particular) is
        preserved.
        """
        counter: Counter[frozenset] = Counter()
        for member, weight in zip(self._sets, self._weights):
            counter[member] += weight
        members = list(counter.keys())
        return SetSystem(members, weights=[counter[m] for m in members])
