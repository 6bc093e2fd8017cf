"""Access-order composition of patterns (the paper's CG example).

Kernels like CG reference several structures in a repeating order, e.g.
``"r(Ap)p(xp)(Ap)r(rp)"``: each letter names a data structure and a
parenthesised group is a concurrent (interleaved) access.  The composite
model charges each structure its own base pattern estimate for the first
use, then models every later use as a *reuse event* whose interference
is the combined footprint of the structures touched since the previous
use (§III-C "Data Reuse Pattern": interferers are considered "as a
whole").

:func:`estimate_structures` is the one strict/lenient ``N_ha``
evaluator behind both kernel models and compiled Aspen models: it
combines an optional access-order composite with per-structure patterns.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.cachesim.configs import CacheGeometry
from repro.diagnostics import DiagnosticSink
from repro.patterns.base import AccessPattern, PatternError, ceil_div
from repro.patterns.reuse import ReuseAccess

#: One step of an access order: the set of structures touched together.
AccessEvent = tuple[str, ...]


def parse_order(order: str) -> list[AccessEvent]:
    """Parse an access-order string into concurrent-access groups.

    Single characters are singleton events; parenthesised runs are
    concurrent groups.  Example::

        >>> parse_order("r(Ap)p")
        [('r',), ('A', 'p'), ('p',)]
    """
    events: list[AccessEvent] = []
    group: list[str] | None = None
    for ch in order:
        if ch.isspace():
            continue
        if ch == "(":
            if group is not None:
                raise PatternError(f"nested '(' in access order {order!r}")
            group = []
        elif ch == ")":
            if group is None:
                raise PatternError(f"unmatched ')' in access order {order!r}")
            if not group:
                raise PatternError(f"empty group in access order {order!r}")
            events.append(tuple(group))
            group = None
        elif ch.isalnum() or ch == "_":
            if group is None:
                events.append((ch,))
            else:
                group.append(ch)
        else:
            raise PatternError(f"bad character {ch!r} in access order {order!r}")
    if group is not None:
        raise PatternError(f"unterminated '(' in access order {order!r}")
    if not events:
        raise PatternError("access order must contain at least one event")
    return events


class CompositeAccessModel(AccessPattern):
    """Patterns for several structures composed through an access order.

    Parameters
    ----------
    patterns:
        Base pattern per data structure; the base estimate covers the
        structure's *first* use.
    order:
        Access order — either a string for :func:`parse_order` or an
        explicit list of name tuples.  Every name must have a pattern.
    iterations:
        How many times the whole order cycles (e.g. solver iterations).

    Every later use is charged as a :class:`ReuseAccess` reload under its
    default ``"concurrent"`` interference scenario.
    """

    name = "composite"

    def __init__(
        self,
        patterns: dict[str, AccessPattern],
        order: str | list[AccessEvent],
        iterations: int = 1,
    ):
        if iterations < 1:
            raise PatternError(f"iterations must be >= 1, got {iterations}")
        self.patterns = dict(patterns)
        self.events = parse_order(order) if isinstance(order, str) else [
            tuple(e) for e in order
        ]
        self.iterations = iterations
        referenced = {name for event in self.events for name in event}
        missing = referenced - set(self.patterns)
        if missing:
            raise PatternError(
                f"access order references structures without patterns: "
                f"{sorted(missing)}"
            )
        self._sizes = {
            name: pattern.footprint_bytes()
            for name, pattern in self.patterns.items()
        }

    # ------------------------------------------------------------------
    def footprint_bytes(self) -> int:
        return sum(self._sizes.values())

    def min_accesses(self, geometry: CacheGeometry) -> float:
        """Every structure pays at least its own compulsory floor."""
        return float(
            sum(p.min_accesses(geometry) for p in self.patterns.values())
        )

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """Per-structure base ceiling plus a full reload at every reuse."""
        total = 0.0
        for name, pattern in self.patterns.items():
            total += pattern.max_accesses(geometry)
            positions = self._positions(name)
            if not positions:
                continue
            fa = ceil_div(self._sizes[name], geometry.line_size)
            churn = sum(
                self._costream_churn_blocks(name, position, geometry)
                for position in positions
            )
            total += self.iterations * (len(positions) * fa + churn)
        return total

    def _positions(self, name: str) -> list[int]:
        return [i for i, event in enumerate(self.events) if name in event]

    def _interference_bytes(self, name: str, start: int, stop: int) -> int:
        """Bytes of other structures competing between two uses of ``name``.

        Three contributions, reflecting how interleaved traffic actually
        lands around the target's touches:

        * structures in events *strictly between* the two uses interfere
          with their full footprint;
        * partners concurrent with the *stop* event interfere, but only
          up to the target's own footprint each: interleaved streams
          advance together, so between two touches of the same target
          element at most ~one target-footprint of partner traffic
          passes (CG example: during ``(Ap)`` the huge matrix stream
          evicts ``p`` only if one matrix row plus ``p`` overflows the
          cache, not because the whole matrix is larger than it);
        * partners of the *start* event are excluded entirely — their
          traffic lands before the target's final touch there.

        Wrap-around windows (stop <= start) span the cycle boundary; a
        single-occurrence structure sees every other event of the cycle.
        """
        n = len(self.events)
        if stop > start:
            window: list[int] = list(range(start + 1, stop))
        else:
            window = list(range(start + 1, n)) + list(range(0, stop))
        touched: set[str] = set()
        for i in window:
            touched.update(self.events[i])
        touched.discard(name)
        return sum(self._sizes[other] for other in touched)

    def _costream_churn_blocks(
        self, name: str, event: int, geometry: CacheGeometry
    ) -> float:
        """Reloads caused *within* a concurrent event by a larger partner.

        When a small structure is repeatedly re-swept against a larger
        co-streaming partner (CG's ``p`` against the matrix in
        ``(Ap)``), consecutive touches of one target element are
        separated by roughly one target-footprint of partner traffic.
        The target therefore survives the whole event when
        ``2 * target_bytes <= Cc`` and reloads fully on *every* re-sweep
        otherwise; the number of re-sweeps is the footprint ratio
        ``partner_bytes / target_bytes``.
        """
        target = self._sizes[name]
        capacity = geometry.capacity
        churn = 0.0
        for partner in self.events[event]:
            if partner == name:
                continue
            sweeps = self._sizes[partner] // max(target, 1)
            if sweeps < 2:
                # Equal-rate single co-sweep: the target is touched once
                # per element; there is no intra-event reuse to lose.
                continue
            if target + min(self._sizes[partner], target) <= capacity:
                continue
            churn += sweeps * ceil_div(target, geometry.line_size)
        return churn

    # ------------------------------------------------------------------
    def estimate_by_structure(self, geometry: CacheGeometry) -> dict[str, float]:
        """Expected main-memory accesses per data structure."""
        result: dict[str, float] = {}
        for name, pattern in self.patterns.items():
            positions = self._positions(name)
            if not positions:
                # Declared but never in the order: charge the base once.
                result[name] = pattern.estimate_accesses(geometry)
                continue
            base = pattern.estimate_accesses(geometry)
            size = self._sizes[name]
            # Reuse events inside one cycle (every iteration).
            within = 0.0
            for prev, cur in zip(positions, positions[1:]):
                within += self._reload(name, size, prev, cur, geometry)
            # Wrap-around reuse: last use of one cycle -> first of the next.
            wrap = self._reload(
                name, size, positions[-1], positions[0], geometry
            ) if self.iterations > 1 or len(positions) > 0 else 0.0
            # Intra-event co-stream churn occurs at every occurrence of
            # the structure's events, every iteration (including the
            # first — its initial sweep misses are the leading edge of
            # the churn).
            churn = sum(
                self._costream_churn_blocks(name, position, geometry)
                for position in positions
            )
            total = base
            total += within * self.iterations
            total += wrap * (self.iterations - 1)
            total += churn * self.iterations
            result[name] = total
        return result

    def _reload(
        self, name: str, size: int, start: int, stop: int, geometry: CacheGeometry
    ) -> float:
        interference = self._interference_bytes(name, start, stop)
        reuse = ReuseAccess(
            target_bytes=size,
            interfering_bytes=interference,
            reuse_count=1,
        )
        return reuse.reload_blocks_per_reuse(geometry)

    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Total expected main-memory accesses over all structures."""
        return sum(self.estimate_by_structure(geometry).values())


def estimate_structures(
    patterns: Mapping[str, AccessPattern],
    composite: CompositeAccessModel | None,
    geometry: CacheGeometry,
    sink: DiagnosticSink | None = None,
) -> tuple[dict[str, float], frozenset[str]]:
    """``N_ha`` per data structure: ``(values, degraded_structures)``.

    Structures of ``patterns`` that the access order ``composite``
    models come first, in the composite's order, with its estimate; the
    rest of ``patterns`` follow with their own.

    Without a ``sink`` (strict) the raw estimates are returned and the
    first error raises.  With one (lenient) nothing raises: a failed
    composite is recorded (``ASP304``) and its structures fall back to
    their own patterns; a non-finite composite value (``ASP303``) takes
    the structure's guarded estimate and is marked degraded; a finite
    one is only raised to the structure's physical floor, since
    interleaving can exceed its standalone ceiling; every other
    estimate goes through
    :meth:`~repro.patterns.base.AccessPattern.estimate_accesses_checked`.
    """
    raw: dict[str, float] = {}
    if composite is not None:
        try:
            raw = composite.estimate_by_structure(geometry)
        except (PatternError, ArithmeticError, ValueError) as exc:
            if sink is None:
                raise
            sink.error(
                "ASP304",
                f"composite access-order estimate failed ({exc}); "
                f"falling back to per-structure estimates",
            )
        names = [name for name in composite.patterns if name in patterns]
        names += [name for name in patterns if name not in composite.patterns]
    else:
        names = list(patterns)
    values: dict[str, float] = {}
    degraded: set[str] = set()
    for name in names:
        pattern = patterns[name]
        value = raw.get(name)
        if sink is None:
            values[name] = (
                pattern.estimate_accesses(geometry) if value is None else value
            )
            continue
        if value is not None and math.isfinite(value):
            floor = float(pattern.min_accesses(geometry))
            values[name] = floor if value < floor else value
            continue
        if value is not None:
            sink.warning(
                "ASP303",
                f"composite estimate for {name!r} is non-finite "
                f"({value!r}); degraded to the worst-case bound",
                structure=name,
            )
            degraded.add(name)
        values[name], was_degraded = pattern.estimate_accesses_checked(
            geometry, sink=sink, structure=name
        )
        if was_degraded:
            degraded.add(name)
    return values, frozenset(degraded)
