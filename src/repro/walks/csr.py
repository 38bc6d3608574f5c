"""Contiguous CSR snapshot of a walkable graph.

The hop engine (:mod:`repro.walks.kernel`) advances many concurrent walks
per step, which needs the graph in a flat, indexable form rather than a
dict-of-sets: :class:`CSRLayout` is that form — the classic compressed
sparse row layout (``indptr``/``indices``) over the graph's sorted vertex
enumeration, augmented with derived rows:

* ``weights`` and a lazily built cumulative-weight row, backing both the
  biased walk's acceptance test and the stationary-law draw
  :meth:`CSRLayout.sample_row`;
* a lazily built integer form of the weights (:meth:`CSRLayout.population`),
  from which ``randCl`` and the exchange round make their oracle draws: one
  uniform integer names a row and a unit of its weight;
* a lazily built neighbour-weight-sum row, from which the engine prices a
  membership notice to a cluster's neighbours in O(1).

Rows are *row indices*, not vertex ids: ``indices`` stores the neighbour's
row so a hop never leaves integer-array space; :attr:`CSRLayout.vertices`
maps rows back to ids at the boundary.  All arrays are ``array``-module
buffers.  :meth:`numpy_views` exposes zero-copy ``frombuffer`` views over
the same memory, and :attr:`CSRLayout.walk_tables` caches the hop engine's
structural tables (built by :mod:`repro.walks.kernel` at its first walk on
the layout).

Invalidation contract (see ``docs/ARCHITECTURE.md``): a layout is a
snapshot keyed on the owning graph's mutation counters.  Structural
mutations (vertex/edge add/remove) discard it wholesale — the next walk
rebuilds in O(V + E).  Weight mutations are applied *in place* through
:meth:`set_weight` (the weight, plus its delta added to each neighbour's
neighbour sum and to the cumulative rows from its own row on), so the
per-event weight churn of the engine never pays a structural rebuild, an
O(E) re-summation or a rebuild of the cumulative rows.  The walk tables and
the numpy views copy no weight, so weight churn leaves both valid.
The sorted-vertex enumeration makes the layout deterministic: the same
graph state always flattens to byte-identical rows, which the trace
subsystem's resume-equals-uninterrupted property relies on.
"""

from __future__ import annotations

import bisect
from array import array
from typing import Dict, Hashable, List, NamedTuple, Optional

from ..errors import WalkError

Vertex = Hashable


class Population(NamedTuple):
    """A layout's weights as integer units, in row order.

    ``cum[row]`` sums the units of rows ``0..row`` and ``base[row]`` those
    of the rows before it; ``total`` is every unit.  A uniform ``u`` in
    ``[0, total)`` names ``row = bisect_right(cum, u)`` with probability
    ``weight(row) / total``, and ``u - base[row]`` is then uniform over that
    row's ``weight(row)`` units.  Overlay weights are cluster sizes, so a
    unit is a member: one draw names a cluster and one of its members.
    """

    cum: List[int]
    base: List[int]
    total: int


class CSRLayout:
    """One immutable-structure CSR snapshot of a walkable graph."""

    __slots__ = (
        "vertices",
        "_row_of",
        "indptr",
        "indices",
        "weights",
        "structure_version",
        "weights_version",
        "_cum",
        "_population",
        "_neighbour_sums",
        "_fractional",
        "walk_tables",
        "_np_static",
    )

    def __init__(
        self,
        vertices: List[Vertex],
        indptr: array,
        indices: array,
        weights: array,
        structure_version=None,
        weights_version=None,
    ) -> None:
        self.vertices = vertices
        self._row_of: Dict[Vertex, int] = {v: row for row, v in enumerate(vertices)}
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        #: Stamp of the owning graph's structural mutation counter at build time.
        self.structure_version = structure_version
        #: Stamp of the owning graph's full mutation counter the weights row
        #: reflects (kept current by :meth:`set_weight`).
        self.weights_version = weights_version
        self._cum: Optional[array] = None
        self._population: Optional[Population] = None
        self._neighbour_sums: Optional[array] = None
        #: Rows whose weight is not a whole number: while there is none, a
        #: weight's delta is added to the neighbour sums exactly.
        self._fractional = sum(1 for weight in weights if not weight.is_integer())
        #: The hop engine's tables of this structure (``None`` until its first walk).
        self.walk_tables = None
        self._np_static = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph, structure_version=None, weights_version=None) -> "CSRLayout":
        """Flatten ``graph`` (any :class:`~repro.walks.interface.WalkableGraph`).

        The row order is the graph's own :meth:`vertices` enumeration and each
        row lists neighbours in :meth:`neighbours` order, so the flat layout
        inherits the graph's determinism contract verbatim.
        """
        vertices = list(graph.vertices())
        row_of = {v: row for row, v in enumerate(vertices)}
        indptr = array("q", [0])
        indices = array("q")
        weights = array("d")
        for vertex in vertices:
            neighbours = graph.neighbours(vertex)
            for neighbour in neighbours:
                indices.append(row_of[neighbour])
            indptr.append(len(indices))
            weights.append(float(graph.weight(vertex)))
        return cls(
            vertices,
            indptr,
            indices,
            weights,
            structure_version=structure_version,
            weights_version=weights_version,
        )

    # ------------------------------------------------------------------
    # Row addressing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertices)

    def row_of(self, vertex: Vertex) -> int:
        """Row index of ``vertex`` (KeyError when absent)."""
        return self._row_of[vertex]

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._row_of

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def set_weight(self, vertex: Vertex, weight: float, weights_version=None) -> None:
        """In-place weight update: O(degree), plus O(rows after it) per built cumulative row.

        Overlay weights are cluster sizes, integer-valued floats whose sums
        are exact in any order, so each built derived row takes the weight's
        delta and equals a fresh build: the neighbour sums at each neighbour
        (the rows that list ``vertex``), :meth:`cum_weights` and
        :meth:`population` (its lists in place: keep none across a weight
        change) from this row on.  While either layout has a fractional
        weight, which a sum may round and a population refuses, they are all
        dropped for a rebuild instead.
        """
        row = self._row_of[vertex]
        weights = self.weights
        old, weight = weights[row], float(weight)
        weights[row] = weight
        self._fractional += (not weight.is_integer()) - (not old.is_integer())
        self.weights_version = weights_version
        if self._fractional or not old.is_integer():
            self._cum = self._population = self._neighbour_sums = None
        elif weight != old:
            sums, cum, population = self._neighbour_sums, self._cum, self._population
            if sums is not None:
                delta, indices = weight - old, self.indices
                for neighbour in indices[self.indptr[row] : self.indptr[row + 1]]:
                    sums[neighbour] += delta
            if cum is not None:
                shift = (weight if weight > 0.0 else 0.0) - (old if old > 0.0 else 0.0)
                cum[row:] = array("d", map(shift.__add__, cum[row:]))
            if population is not None:
                units = (int(weight) if weight > 0.0 else 0) - (int(old) if old > 0.0 else 0)
                cum, base, total = population
                cum[row:] = map(units.__add__, cum[row:])
                base[row + 1 :] = map(units.__add__, base[row + 1 :])
                self._population = Population(cum, base, total + units)

    def refresh_weights(self, graph, weights_version=None) -> None:
        """Re-read every weight from ``graph`` (safety net for bulk updates)."""
        weights = self.weights
        for row, vertex in enumerate(self.vertices):
            weights[row] = float(graph.weight(vertex))
        self._fractional = sum(1 for weight in weights if not weight.is_integer())
        self.weights_version = weights_version
        self._cum = self._population = self._neighbour_sums = None

    def cum_weights(self) -> array:
        """Cumulative ``max(0, weight)`` row (built lazily, patched by :meth:`set_weight`)."""
        cum = self._cum
        if cum is None:
            cum = array("d")
            total = 0.0
            for weight in self.weights:
                total += weight if weight > 0.0 else 0.0
                cum.append(total)
            self._cum = cum
        return cum

    def neighbour_weight_sums(self) -> array:
        """Per row, the sum of its neighbours' weights (built lazily, patched by :meth:`set_weight`)."""
        if self._neighbour_sums is None:
            weight_of, indices, indptr = self.weights.__getitem__, self.indices, self.indptr
            rows = zip(indptr, indptr[1:])
            self._neighbour_sums = array("d", [sum(map(weight_of, indices[a:b])) for a, b in rows])
        return self._neighbour_sums

    def population(self) -> Population:
        """The weights as integer units (built lazily, patched by :meth:`set_weight`).

        A non-positive weight is zero units; a fractional one is refused
        with :class:`~repro.errors.WalkError`, since a unit must be whole.
        """
        population = self._population
        if population is None:
            cum, base, total = [], [], 0
            for weight in self.weights:
                units = int(weight) if weight > 0.0 else 0
                if units != weight and weight > 0.0:
                    raise WalkError(f"weight {weight!r} is not a whole number of units")
                base.append(total)
                total += units
                cum.append(total)
            population = self._population = Population(cum, base, total)
        return population

    def sample_row(self, rng) -> int:
        """A row drawn from ``weight / total`` by one ``rng.random()``.

        One binary search over the cumulative row with
        :meth:`random.Random.choices`' bounds, so the draw selects the
        vertex a rebuild-per-draw weighted choice would.  An empty or
        weightless layout raises ``ValueError``, leaving ``rng`` untouched.
        """
        cum = self.cum_weights()
        if not cum:
            raise ValueError("cannot sample a vertex of an empty graph")
        total = cum[-1]
        if total <= 0.0:
            raise ValueError("graph has no positive vertex weight")
        return bisect.bisect_right(cum, rng.random() * total, 0, len(cum) - 1)

    # ------------------------------------------------------------------
    # numpy views
    # ------------------------------------------------------------------
    def numpy_views(self):
        """Zero-copy numpy views over the CSR rows.

        ``indptr``/``indices``/``weights`` are ``frombuffer``
        views of the same memory, so :meth:`set_weight` updates are visible
        through them without any copying.  numpy is imported here, for the
        hop engine and :mod:`repro.walks.law`, and nowhere else
        in this module.
        """
        views = self._np_static
        if views is None:
            import numpy as _np

            views = {
                "indptr": _np.frombuffer(self.indptr, dtype=_np.int64),
                "indices": _np.frombuffer(self.indices, dtype=_np.int64)
                if len(self.indices)
                else _np.empty(0, dtype=_np.int64),
                "weights": _np.frombuffer(self.weights, dtype=_np.float64)
                if len(self.weights)
                else _np.empty(0, dtype=_np.float64),
            }
            self._np_static = views
        return views

