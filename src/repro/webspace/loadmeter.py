"""Per-site load accounting.

The paper argues that surfacing imposes a light, amortizable off-line load on
form sites, whereas a virtual-integration engine with imprecise routing loads
sites at query time.  The :class:`LoadMeter` records every fetch by host and
by agent so both loads can be compared directly (experiment E6).
"""

from __future__ import annotations

import threading
from collections import Counter, defaultdict
from dataclasses import dataclass


# Canonical agent names used throughout the reproduction.
AGENT_CRAWLER = "crawler"          # the search engine's regular web crawler
AGENT_SURFACER = "surfacer"        # off-line form probing / surfacing
AGENT_VIRTUAL = "virtual"          # query-time fetches by the virtual-integration engine
AGENT_WEBTABLES = "webtables"      # off-line table harvesting into the content store
AGENT_USER = "user"                # a user clicking through to fresh content


@dataclass(frozen=True)
class FetchOutcome:
    """Per-host fetch bookkeeping under faults: attempts, failures, retries.

    ``fetches`` counts every attempt (including failed and retried ones);
    ``errors`` counts attempts that raised a ``FetchError`` plus fetches the
    circuit breaker refused outright; ``retries`` counts re-attempts issued
    by the retry policy.  On a fault-free run errors and retries are zero.
    """

    host: str
    fetches: int
    errors: int
    retries: int

    @property
    def degraded(self) -> bool:
        return self.errors > 0


class LoadMeter:
    """Counts fetches per (host, agent), and under faults also errors/retries."""

    def __init__(self) -> None:
        self._by_host_agent: dict[str, Counter] = defaultdict(Counter)
        self._errors_by_host_agent: dict[str, Counter] = defaultdict(Counter)
        self._retries_by_host_agent: dict[str, Counter] = defaultdict(Counter)
        # Fetches may come from parallel surfacing workers; the increment is
        # a read-modify-write, so it is guarded.
        self._lock = threading.Lock()

    def record(self, host: str, agent: str) -> None:
        """Record one fetch from ``agent`` against ``host`` (thread-safe)."""
        with self._lock:
            self._by_host_agent[host][agent] += 1

    def record_error(self, host: str, agent: str) -> None:
        """Record one failed fetch (injected fault or breaker refusal)."""
        with self._lock:
            self._errors_by_host_agent[host][agent] += 1

    def record_retry(self, host: str, agent: str) -> None:
        """Record one retry attempt issued by the retry policy."""
        with self._lock:
            self._retries_by_host_agent[host][agent] += 1

    def reset(self) -> None:
        """Forget all recorded load."""
        with self._lock:
            self._by_host_agent.clear()
            self._errors_by_host_agent.clear()
            self._retries_by_host_agent.clear()

    def total(self, host: str | None = None, agent: str | None = None) -> int:
        """Total fetches, optionally filtered by host and/or agent."""
        return self._filtered_total(self._by_host_agent, host, agent)

    def errors(self, host: str | None = None, agent: str | None = None) -> int:
        """Total failed fetches, optionally filtered by host and/or agent."""
        return self._filtered_total(self._errors_by_host_agent, host, agent)

    def retries(self, host: str | None = None, agent: str | None = None) -> int:
        """Total retry attempts, optionally filtered by host and/or agent."""
        return self._filtered_total(self._retries_by_host_agent, host, agent)

    def _filtered_total(
        self, table: dict[str, Counter], host: str | None, agent: str | None
    ) -> int:
        hosts = [host] if host is not None else list(table.keys())
        total = 0
        for name in hosts:
            counts = table.get(name)
            if counts is None:
                continue
            if agent is None:
                total += sum(counts.values())
            else:
                total += counts.get(agent, 0)
        return total

    def outcome(self, host: str) -> FetchOutcome:
        """Attempt/error/retry summary for one host."""
        return FetchOutcome(
            host=host,
            fetches=self.total(host=host),
            errors=self.errors(host=host),
            retries=self.retries(host=host),
        )

    def hosts(self) -> list[str]:
        """All hosts that received at least one fetch."""
        return sorted(self._by_host_agent.keys())

    def per_host(self, agent: str | None = None) -> dict[str, int]:
        """Mapping host -> fetch count (optionally for a single agent)."""
        return {host: self.total(host=host, agent=agent) for host in self.hosts()}

    def max_per_host(self, agent: str | None = None) -> int:
        """The heaviest per-host load (0 when nothing recorded)."""
        loads = self.per_host(agent=agent)
        return max(loads.values()) if loads else 0
