"""Metric protocol, metric space and axiom checking.

Objects throughout the library are integer ids ``0..n-1``; a
:class:`MetricSpace` binds those ids to payloads (vectors, graph nodes,
strings, ...) and a :class:`Metric` over the payloads.  Algorithms only
ever call ``space.distance(a, b)`` on ids — mirroring the paper's
premise that "we only have access to the distance between two objects".

Batch evaluation
----------------
Distance computations dominate the paper's cost model (Section 5), and
the hot paths — M-tree node scans, skyline and aggregate-NN bounds,
score counting — all evaluate one query payload against *many*
candidates at once.  :func:`pairwise_distances` is the set-at-a-time
entry point: metrics that implement the optional ``pairwise`` hook
(the Lp family evaluates it as one numpy broadcast) answer a whole
candidate batch in a single call; every other metric falls back to a
per-pair loop with unchanged semantics (:func:`distance_rows` makes
one such batch per query object).  A batch of ``n`` candidates
is **by definition** ``n`` distance computations — the batched and the
per-pair paths produce bit-identical distances and identical
:class:`~repro.metric.counting.CountingMetric` counts.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterable, List, Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class Metric(Protocol):
    """A distance function over object payloads.

    Implementations must satisfy the metric axioms (positivity,
    symmetry, reflexivity, triangle inequality).  ``name`` is used in
    benchmark reports.

    Implementations may additionally provide the **batch hook**

    ``pairwise(query, candidates, reflect=False) -> np.ndarray``

    returning ``d(query, c)`` for every candidate payload.  A
    vectorized ``pairwise`` must produce **bit-identical** floats to
    the per-pair ``__call__`` in either argument order (true for the
    Lp family, where the only order-sensitive step is ``|a - b|``);
    loop-based implementations honor ``reflect`` by calling
    ``metric(c, query)`` instead of ``metric(query, c)``.  An
    order-sensitive metric (a per-source row cache) may differ in the
    last bits between ``d(a, b)`` and ``d(b, a)``, so each call site
    keeps one orientation; distance vectors are ``d(q, o)``, query
    first.  Metrics without the hook are batched by
    :func:`pairwise_distances`'s fallback loop.
    """

    name: str

    def __call__(self, a: Any, b: Any) -> float:
        """Return the distance between two payloads."""
        ...  # pragma: no cover - protocol


def pairwise_distances(
    metric: Metric,
    query: Any,
    candidates: Sequence[Any],
    reflect: bool = False,
) -> np.ndarray:
    """Distances from one query payload to a batch of candidates.

    The batched equivalent of ``[metric(query, c) for c in candidates]``
    (or ``[metric(c, query) ...]`` with ``reflect=True``): dispatches to
    the metric's ``pairwise`` hook when present, else runs the loop.
    Returns a float64 array of shape ``(len(candidates),)``; results
    are bit-identical to the per-pair path either way.
    """
    fn = getattr(metric, "pairwise", None)
    if fn is not None:
        return fn(query, candidates, reflect=reflect)
    if reflect:
        values = [metric(c, query) for c in candidates]
    else:
        values = [metric(query, c) for c in candidates]
    return np.asarray(values, dtype=float)


def distance_rows(
    metric: Metric,
    objects: Sequence[Any],
    queries: Sequence[Any],
) -> List[List[float]]:
    """Distance vectors of ``objects`` over ``queries``, query first.

    The batched equivalent of
    ``[[metric(q, o) for q in queries] for o in objects]``: one
    :func:`pairwise_distances` column per query object, so a hook-less
    metric sees the calls query-major, query first, and a per-source
    row cache answers them all from the ``m`` query rows.  Distances
    and counts are bit-identical to the per-pair loop.
    """
    if not objects or not queries:
        return [[] for _ in objects]
    columns = [pairwise_distances(metric, q, objects) for q in queries]
    return np.array(columns).T.tolist()


class MetricAxiomError(AssertionError):
    """Raised by :func:`check_metric_axioms` when an axiom fails."""


def check_metric_axioms(
    metric: Metric,
    payloads: Sequence[Any],
    sample_triples: int = 200,
    rng: random.Random | None = None,
    tolerance: float = 1e-9,
) -> None:
    """Spot-check the four metric axioms on a payload sample.

    Exhaustive checking is cubic, so the triangle inequality is verified
    on ``sample_triples`` random triples (plus all triples when the
    sample is small).  Raises :class:`MetricAxiomError` on violation.
    """
    if not payloads:
        return
    rng = rng or random.Random(0)
    n = len(payloads)

    pair_sample: Iterable[tuple[int, int]]
    if n * n <= 4 * sample_triples:
        pair_sample = itertools.product(range(n), repeat=2)
    else:
        pair_sample = (
            (rng.randrange(n), rng.randrange(n))
            for _ in range(2 * sample_triples)
        )
    for i, j in pair_sample:
        dij = metric(payloads[i], payloads[j])
        dji = metric(payloads[j], payloads[i])
        if dij < -tolerance:
            raise MetricAxiomError(f"negative distance d({i},{j})={dij}")
        if abs(dij - dji) > tolerance:
            raise MetricAxiomError(
                f"asymmetry d({i},{j})={dij} != d({j},{i})={dji}"
            )
        if i == j and abs(dij) > tolerance:
            raise MetricAxiomError(f"d({i},{i})={dij} != 0")

    if n ** 3 <= sample_triples:
        triples = itertools.product(range(n), repeat=3)
    else:
        triples = (
            (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(sample_triples)
        )
    for i, j, x in triples:
        dij = metric(payloads[i], payloads[j])
        dix = metric(payloads[i], payloads[x])
        dxj = metric(payloads[x], payloads[j])
        if dij > dix + dxj + tolerance:
            raise MetricAxiomError(
                "triangle inequality violated: "
                f"d({i},{j})={dij} > d({i},{x})+d({x},{j})={dix + dxj}"
            )


class MetricSpace:
    """A finite metric space ``(D, d)`` over integer object ids.

    Parameters
    ----------
    payloads:
        Sequence of object payloads; object ``i``'s payload is
        ``payloads[i]``.
    metric:
        The distance function over payloads.
    name:
        Human-readable label used in reports (e.g. ``"UNI"``).
    """

    def __init__(
        self,
        payloads: Sequence[Any],
        metric: Metric,
        name: str = "space",
    ) -> None:
        self._payloads: List[Any] = list(payloads)
        self.metric = metric
        self.name = name

    # ------------------------------------------------------------------
    # object access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._payloads)

    @property
    def object_ids(self) -> range:
        """All object ids in the space."""
        return range(len(self._payloads))

    def payload(self, object_id: int) -> Any:
        """Return the payload of an object id."""
        return self._payloads[object_id]

    def append(self, payload: Any) -> int:
        """Add a new object; returns its id.

        Supports the dynamic-data-set workflow the M-tree is chosen for
        ("its ability to handle dynamic data sets", paper Section 4.1):
        append here, then ``tree.insert(new_id)``.
        """
        self._payloads.append(payload)
        return len(self._payloads) - 1

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> float:
        """Distance between two objects, by id."""
        return self.metric(self._payloads[a], self._payloads[b])

    def distance_to_payload(self, object_id: int, payload: Any) -> float:
        """Distance between an object and a free-standing payload."""
        return self.metric(self._payloads[object_id], payload)

    def pairwise(self, a: int, object_ids: Sequence[int]) -> np.ndarray:
        """Batched ``[self.distance(a, i) for i in object_ids]``.

        One metric-kernel call for the whole id batch; bit-identical
        distances (and, through :class:`CountingMetric`, identical
        counts) to the per-pair loop.
        """
        payloads = self._payloads
        return pairwise_distances(
            self.metric, payloads[a], [payloads[i] for i in object_ids]
        )

    def pairwise_reflected(self, a: int, object_ids: Sequence[int]) -> np.ndarray:
        """Batched ``[self.distance(i, a) for i in object_ids]``.

        Same distances as :meth:`pairwise` for true (symmetric)
        metrics, but preserves the candidate-first argument order of
        the legacy call sites for metrics whose evaluation is
        order-sensitive (e.g. per-source shortest-path caches).
        """
        payloads = self._payloads
        return pairwise_distances(
            self.metric,
            payloads[a],
            [payloads[i] for i in object_ids],
            reflect=True,
        )

    def distance_rows(
        self, object_ids: Sequence[int], other_ids: Sequence[int]
    ) -> List[List[float]]:
        """Batched ``[[self.distance(q, o) for q in other_ids] for o in
        object_ids]``, query first; see :func:`distance_rows`."""
        payloads = self._payloads
        return distance_rows(
            self.metric,
            [payloads[i] for i in object_ids],
            [payloads[q] for q in other_ids],
        )

    def pairwise_to_payload(
        self, payload: Any, object_ids: Sequence[int]
    ) -> np.ndarray:
        """Batched ``[self.distance_to_payload(i, payload) for i in ...]``.

        Keeps ``distance_to_payload``'s object-payload-first argument
        order (via ``reflect``) so loop-fallback metrics see the exact
        legacy call sequence.
        """
        payloads = self._payloads
        return pairwise_distances(
            self.metric,
            payload,
            [payloads[i] for i in object_ids],
            reflect=True,
        )

    # ------------------------------------------------------------------
    # geometry helpers used by the query-workload generator
    # ------------------------------------------------------------------
    def approximate_radius(
        self,
        center: int | None = None,
        sample: int = 256,
        rng: random.Random | None = None,
    ) -> float:
        """Approximate the radius needed to cover the data set.

        The paper's query-coverage parameter ``c`` normalises the query
        set's enclosing radius by the data set's covering radius.  An
        exact minimum enclosing ball in a general metric space is
        expensive, so — like most metric-indexing work — we approximate:
        pick a (given or sampled) center and take the max distance to a
        random sample of objects.
        """
        n = len(self)
        if n == 0:
            return 0.0
        rng = rng or random.Random(0)
        if center is None:
            center = self.medoid(sample=min(sample, n), rng=rng)
        ids: Iterable[int]
        if n <= sample:
            ids = self.object_ids
        else:
            ids = (rng.randrange(n) for _ in range(sample))
        return max(self.distance(center, i) for i in ids)

    def medoid(
        self, sample: int = 64, rng: random.Random | None = None
    ) -> int:
        """Approximate medoid: the sampled object minimizing the summed
        distance to a random sample of other objects."""
        n = len(self)
        if n == 0:
            raise ValueError("empty metric space has no medoid")
        rng = rng or random.Random(0)
        candidates = (
            list(self.object_ids)
            if n <= sample
            else rng.sample(range(n), sample)
        )
        probes = (
            list(self.object_ids)
            if n <= sample
            else rng.sample(range(n), sample)
        )
        best_id = candidates[0]
        best_cost = float("inf")
        for cand in candidates:
            cost = sum(self.distance(cand, p) for p in probes)
            if cost < best_cost:
                best_cost = cost
                best_id = cand
        return best_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricSpace(name={self.name!r}, n={len(self)}, "
            f"metric={getattr(self.metric, 'name', self.metric)!r})"
        )
