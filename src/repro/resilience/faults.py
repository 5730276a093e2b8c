"""Deterministic fault injection over the fetch seam.

A :class:`FaultPlan` decides, for the ``index``-th fetch against a host,
whether that fetch fails (transient error, timeout stall, outage window) and
how much latency it carries.  Every decision is a pure function of
``(plan seed, host, fetch index)``: the rng stream for a decision is derived
statelessly as ``SeededRng(f"{seed}/{host}/{index}")``, so replays are
bit-for-bit identical no matter how threads interleave, and two runs with the
same seed inject the same faults in the same places.

:class:`FaultyWeb` wraps a :class:`~repro.webspace.web.Web` and applies the
plan at fetch time, raising the typed errors from ``repro.webspace.web`` and
recording every failure in the shared :class:`LoadMeter`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.util.rng import SeededRng
from repro.webspace.loadmeter import AGENT_CRAWLER
from repro.webspace.page import WebPage
from repro.webspace.url import Url
from repro.webspace.web import (
    FetchTimeout,
    HostUnavailable,
    TransientFetchError,
    Web,
)

KIND_OK = "ok"
KIND_ERROR = "error"
KIND_TIMEOUT = "timeout"
KIND_OUTAGE = "outage"


@dataclass(frozen=True)
class FaultSpec:
    """Failure profile for one host (or the plan-wide default).

    ``error_rate`` / ``timeout_rate`` are independent per-fetch probabilities
    of a transient error or a timeout stall.  ``outages`` is a tuple of
    half-open fetch-index windows ``(start, stop)`` during which every fetch
    fails hard with :class:`HostUnavailable` (deterministic, not
    probabilistic: the index alone decides).  ``latency_mean`` /
    ``latency_jitter`` describe injected latency seconds for successful
    fetches; ``timeout_stall`` is the simulated stall charged to a timeout.
    """

    error_rate: float = 0.0
    timeout_rate: float = 0.0
    outages: tuple[tuple[int, int], ...] = ()
    latency_mean: float = 0.0
    latency_jitter: float = 0.0
    timeout_stall: float = 1.0

    def __post_init__(self) -> None:
        for name in ("error_rate", "timeout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for start, stop in self.outages:
            if start < 0 or stop < start:
                raise ValueError(f"bad outage window ({start}, {stop})")

    @property
    def quiet(self) -> bool:
        """True when this spec can never produce a fault or latency."""
        return (
            self.error_rate == 0.0
            and self.timeout_rate == 0.0
            and not self.outages
            and self.latency_mean == 0.0
            and self.latency_jitter == 0.0
        )


@dataclass(frozen=True)
class FaultDecision:
    """The plan's verdict for one (host, fetch index) pair."""

    kind: str
    latency: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == KIND_OK


#: The decision for fetches the plan leaves alone.
DECISION_OK = FaultDecision(kind=KIND_OK)


class FaultPlan:
    """A seeded, per-host schedule of injected faults.

    ``hosts`` maps host name to its :class:`FaultSpec`; ``default`` applies
    to every host not listed.  ``agents`` optionally restricts injection to
    fetches issued by those agents (e.g. only query-time ``virtual``
    fetches); fetches by other agents pass through untouched *and do not
    consume fault indices*, so enabling the filter does not shift the fault
    sequence seen by matching fetches.  ``enabled`` may be flipped at any
    time to pause/resume injection with the same no-index-consumed rule.
    """

    def __init__(
        self,
        seed: Union[int, str] = 0,
        *,
        default: FaultSpec = FaultSpec(),
        hosts: Optional[dict[str, FaultSpec]] = None,
        agents: Optional[Sequence[str]] = None,
        enabled: bool = True,
    ) -> None:
        self.seed = seed
        self.default = default
        self.hosts = dict(hosts or {})
        self.agents: Optional[frozenset[str]] = (
            frozenset(agents) if agents is not None else None
        )
        self.enabled = enabled

    def spec_for(self, host: str) -> FaultSpec:
        return self.hosts.get(host, self.default)

    def applies_to(self, agent: str) -> bool:
        """Whether fetches by ``agent`` are subject to this plan."""
        return self.enabled and (self.agents is None or agent in self.agents)

    def decide(self, host: str, index: int) -> FaultDecision:
        """Deterministic verdict for the ``index``-th governed fetch.

        Stateless: the decision stream is keyed on ``(seed, host, index)``,
        never on call order, so concurrent fetches against different hosts
        cannot perturb each other's fault sequences.
        """
        spec = self.spec_for(host)
        if spec.quiet:
            return DECISION_OK
        for start, stop in spec.outages:
            if start <= index < stop:
                return FaultDecision(kind=KIND_OUTAGE)
        rng = SeededRng(f"{self.seed}/{host}/{index}")
        if spec.error_rate and rng.maybe(spec.error_rate):
            return FaultDecision(kind=KIND_ERROR)
        if spec.timeout_rate and rng.maybe(spec.timeout_rate):
            return FaultDecision(kind=KIND_TIMEOUT, latency=spec.timeout_stall)
        latency = 0.0
        if spec.latency_mean or spec.latency_jitter:
            latency = max(
                0.0, spec.latency_mean + rng.uniform(-1.0, 1.0) * spec.latency_jitter
            )
        return FaultDecision(kind=KIND_OK, latency=latency)


class ScriptedFaults:
    """A scripted (non-random) fault source for tests.

    ``script`` maps host to a sequence of :class:`FaultDecision`; once a
    host's script is exhausted every further fetch is OK.  Implements the
    same ``applies_to``/``decide`` duck type as :class:`FaultPlan`.
    """

    def __init__(
        self,
        script: dict[str, Sequence[FaultDecision]],
        *,
        agents: Optional[Sequence[str]] = None,
        enabled: bool = True,
    ) -> None:
        self.script = {host: list(decisions) for host, decisions in script.items()}
        self.agents: Optional[frozenset[str]] = (
            frozenset(agents) if agents is not None else None
        )
        self.enabled = enabled

    def applies_to(self, agent: str) -> bool:
        return self.enabled and (self.agents is None or agent in self.agents)

    def decide(self, host: str, index: int) -> FaultDecision:
        decisions = self.script.get(host, ())
        if index < len(decisions):
            return decisions[index]
        return DECISION_OK


@dataclass(frozen=True)
class FaultEvent:
    """One injected-fault log entry (recorded only for non-OK decisions)."""

    host: str
    agent: str
    index: int
    kind: str
    url: str


class FaultyWeb(Web):
    """A :class:`Web` whose ``fetch`` consults a fault plan before serving.

    Shares the inner web's site registry and :class:`LoadMeter` (so
    ``isinstance(x, Web)`` callers and load accounting keep working), keeps a
    lock-guarded per-host fetch-index counter, and logs every injected fault
    in ``self.events`` for replay comparison.  Failed fetches are metered as
    both an attempt (``record``) and an error (``record_error``).

    ``sleeper`` (e.g. ``time.sleep``) makes injected latency real; by default
    latency is only accounted (``injected_latency``), keeping tests fast.
    """

    def __init__(
        self,
        inner: Web,
        plan: Union[FaultPlan, ScriptedFaults],
        *,
        sleeper: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.sleeper = sleeper
        # Share registry + meter with the wrapped web rather than calling
        # Web.__init__, so registrations and load flow through one place.
        self._sites = inner._sites
        self.load_meter = inner.load_meter
        self._indices: dict[str, int] = {}
        self._index_lock = threading.Lock()
        self.events: list[FaultEvent] = []
        self.injected_latency = 0.0

    def _next_index(self, host: str) -> int:
        with self._index_lock:
            index = self._indices.get(host, 0)
            self._indices[host] = index + 1
            return index

    def fetch(self, url: Union[Url, str], agent: str = AGENT_CRAWLER) -> WebPage:
        if isinstance(url, str):
            url = Url.parse(url)
        if not self.plan.applies_to(agent):
            return self.inner.fetch(url, agent=agent)
        host = url.host
        index = self._next_index(host)
        decision = self.plan.decide(host, index)
        if decision.latency:
            with self._index_lock:
                self.injected_latency += decision.latency
            if self.sleeper is not None:
                self.sleeper(decision.latency)
        if decision.ok:
            return self.inner.fetch(url, agent=agent)
        # The attempt reaches the host (and is metered) even when it fails.
        self.load_meter.record(host, agent)
        self.load_meter.record_error(host, agent)
        with self._index_lock:
            self.events.append(
                FaultEvent(host=host, agent=agent, index=index, kind=decision.kind, url=str(url))
            )
        if decision.kind == KIND_OUTAGE:
            raise HostUnavailable(str(url), "injected outage window")
        if decision.kind == KIND_TIMEOUT:
            raise FetchTimeout(
                str(url), "injected timeout", stalled_seconds=decision.latency
            )
        raise TransientFetchError(str(url), "injected transient error")

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault totals by kind (deterministic ordering)."""
        counts: dict[str, int] = {}
        with self._index_lock:
            events = list(self.events)
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def event_log(self) -> list[FaultEvent]:
        """A stable copy of the injected-fault log, ordered by (host, index).

        The in-memory list is append-ordered (thread-interleaving dependent);
        this ordering is the canonical one for replay comparison.
        """
        with self._index_lock:
            events = list(self.events)
        return sorted(events, key=lambda e: (e.host, e.index))
