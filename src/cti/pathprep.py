"""Path hygiene and the provider-customer topological-peak filter.

Raw paths are sanitized (prepending collapsed, loops / unallocated ASes /
poisoned paths rejected), filtered to inbound-eligible monitors, and
truncated at the topological peak: the farthest provider-to-customer link
when scanning from the origin outward. Everything above the peak, including
peers of the peak provider, is discarded.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .geo import GeoTable
from .model import MonitorId, PathRecord, Prefix, RelationshipTable


class RejectCategory(Enum):
    LOOP = "Loop"
    UNALLOCATED = "Unallocated"
    POISONED = "Poisoned"
    NO_PEAK = "NoPeak"


@dataclass(frozen=True)
class PathRejection:
    category: RejectCategory
    monitor_id: str
    prefix: Prefix
    reason: str

    def as_log_line(self) -> str:
        return f"{self.category.value},{self.monitor_id},{self.prefix},{self.reason}"


@dataclass(frozen=True)
class RetainedPath:
    """Origin-first segment up to and including the topological-peak provider."""

    monitor: MonitorId
    prefix: Prefix
    segment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.segment) < 2:
            raise ValueError("retained segment needs the origin plus one transit AS")

    @property
    def origin(self) -> int:
        return self.segment[0]


def sanitize(
    path: PathRecord,
    clique: frozenset[int],
    reserved: frozenset[int],
) -> PathRecord | PathRejection:
    """Collapse prepending, then reject reserved ASes, loops and poisoned paths;
    a return to the monitor's host AS after the first hop is a loop too."""
    collapsed: list[int] = []
    for asn in path.hops:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)

    for asn in collapsed:
        if asn in reserved:
            return PathRejection(
                RejectCategory.UNALLOCATED, path.monitor.id, path.prefix, f"reserved ASN {asn}"
            )
    if len(set(collapsed)) != len(collapsed):
        return PathRejection(
            RejectCategory.LOOP, path.monitor.id, path.prefix, "ASN repeats non-consecutively"
        )
    clique_positions = [i for i, asn in enumerate(collapsed) if asn in clique]
    if clique_positions:
        lo, hi = clique_positions[0], clique_positions[-1]
        for i in range(lo + 1, hi):
            if collapsed[i] not in clique:
                return PathRejection(
                    RejectCategory.POISONED,
                    path.monitor.id,
                    path.prefix,
                    f"non-clique ASN {collapsed[i]} between clique ASes",
                )
    if path.monitor.host_asn in collapsed[1:]:
        reason = f"monitor host ASN {path.monitor.host_asn} after the first hop"
        return PathRejection(RejectCategory.LOOP, path.monitor.id, path.prefix, reason)
    if tuple(collapsed) == path.hops:
        return path
    return PathRecord(monitor=path.monitor, prefix=path.prefix, hops=tuple(collapsed))


def drop_inbound_ineligible(path: PathRecord, dest_country: str, geo: GeoTable) -> bool:
    """Keep only paths observed from outside the destination country, toward
    prefixes that actually have address mass there."""
    if geo.mass.get((path.prefix, dest_country), 0) == 0:
        return False
    return path.monitor.country != dest_country


def truncate_to_peak(
    path: PathRecord,
    rels: RelationshipTable,
) -> RetainedPath | PathRejection:
    """Retain the origin-first segment capped by the topological peak.

    The monitor host AS is removed when it is the monitor-nearest hop. The
    peak is the largest index k (origin = index 0) such that segment[k] is an
    inferred provider of segment[k-1]; paths with no such link are rejected.
    """
    hops = list(path.hops)
    if hops and hops[0] == path.monitor.host_asn:
        hops = hops[1:]
    if len(hops) < 2:
        return PathRejection(
            RejectCategory.NO_PEAK, path.monitor.id, path.prefix, "no transit AS on path"
        )
    origin_first = hops[::-1]
    peak = None
    for k in range(1, len(origin_first)):
        if rels.is_p2c(origin_first[k], origin_first[k - 1]):
            peak = k
    if peak is None:
        return PathRejection(
            RejectCategory.NO_PEAK, path.monitor.id, path.prefix, "no provider-customer link"
        )
    return RetainedPath(
        monitor=path.monitor, prefix=path.prefix, segment=tuple(origin_first[: peak + 1])
    )


def prepare_paths(
    paths: Iterable[PathRecord],
    clique: frozenset[int],
    reserved: frozenset[int],
) -> tuple[list[PathRecord], list[PathRejection]]:
    """Sanitize a corpus, preserving a stable (monitor, prefix) order."""
    accepted: list[PathRecord] = []
    rejections: list[PathRejection] = []
    for path in paths:
        result = sanitize(path, clique, reserved)
        if isinstance(result, PathRejection):
            rejections.append(result)
        else:
            accepted.append(result)
    # plain values sort in Prefix order (base, length) without its Python-level __lt__
    accepted.sort(key=lambda p: (p.monitor.id, p.prefix.base, p.prefix.length))
    return accepted, rejections


def retain_for_country(
    sanitized: Iterable[PathRecord],
    dest_country: str,
    geo: GeoTable,
    rels: RelationshipTable,
) -> tuple[list[RetainedPath], list[PathRejection]]:
    """Inbound filter plus peak truncation for one destination country."""
    retained: list[RetainedPath] = []
    rejections: list[PathRejection] = []
    for path in sanitized:
        if not drop_inbound_ineligible(path, dest_country, geo):
            continue
        result = truncate_to_peak(path, rels)
        if isinstance(result, PathRejection):
            rejections.append(result)
        else:
            retained.append(result)
    return retained, rejections
