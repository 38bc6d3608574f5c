"""Open-loop arrival processes for the live service's load generator.

A batch workload (:mod:`repro.workloads.churn`) emits one event per engine
step; a *live* load test needs events on a wall-clock schedule that does not
react to the server — an **open-loop** arrival process.  Closed-loop drivers
(send, wait for the reply, send again) self-throttle when the server slows
down and hide exactly the latency degradation a load test exists to measure
(the classic coordinated-omission trap), so the schedule here is computed
up-front and requests are launched at their scheduled instant regardless of
how earlier requests are faring.

Three sources:

* :class:`PoissonArrivals` — exponential inter-arrival gaps at a target
  aggregate rate with a weighted operation mix, fully determined by the
  seed (two generators with the same seed produce the identical schedule);
* :class:`LogNormalSessions` — session-lifecycle traffic: clients arrive as
  a Poisson process, each session is a ``join`` → read operations → ``leave``
  lifecycle whose length is log-normally distributed (the heavy tail real
  peer-to-peer session measurements show: most sessions are short, a few
  run very long and dominate the op volume);
* :func:`load_arrival_trace` / :func:`save_arrival_trace` — replayable
  JSONL schedules (``{"at": seconds, "op": name}`` per line), so a recorded
  production arrival pattern can be re-driven verbatim.

Both generators accept a :class:`DiurnalProfile`, which modulates the
arrival rate over a day/night cycle by thinning (the standard construction
of an inhomogeneous Poisson process: draw at the peak rate, keep each
arrival with probability ``rate(t) / peak``) — still a pure function of the
seed, and the thinned schedule saves/loads through the same JSONL format.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError

#: Operations the service protocol accepts as load-mix components.
MIX_OPERATIONS = ("sample", "broadcast", "join", "leave", "status")

#: Default operation mix: sampling-heavy with background churn, mirroring
#: the paper's workload model (the service exists to serve samples; churn
#: arrives underneath it).
DEFAULT_MIX: Dict[str, float] = {"sample": 0.8, "join": 0.1, "leave": 0.1}


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: launch ``op`` at ``at`` seconds from start."""

    at: float
    op: str


def parse_mix(text: str) -> Dict[str, float]:
    """Parse an ``op=weight,op=weight`` mix string into normalised weights.

    Weights are normalised to sum to 1; unknown operations and non-positive
    totals are configuration errors (the CLI surfaces them as usage
    mistakes, exit 2).
    """
    weights: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, value = part.partition("=")
        if not sep:
            raise ConfigurationError(f"malformed mix component {part!r} (expected op=weight)")
        name = name.strip()
        if name not in MIX_OPERATIONS:
            raise ConfigurationError(
                f"unknown operation {name!r} in mix; expected one of {sorted(MIX_OPERATIONS)}"
            )
        try:
            weight = float(value)
        except ValueError:
            raise ConfigurationError(f"mix weight for {name!r} is not a number: {value!r}")
        if not math.isfinite(weight) or weight < 0:
            raise ConfigurationError(f"mix weight for {name!r} must be a finite number >= 0")
        weights[name] = weights.get(name, 0.0) + weight
    total = sum(weights.values())
    if total <= 0:
        raise ConfigurationError(f"operation mix {text!r} has no positive weight")
    return {name: weight / total for name, weight in weights.items() if weight > 0}


def _require_finite(**values: float) -> None:
    # NaN and infinities pass every ``<= 0`` check.
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a finite number, not {value}")


class DiurnalProfile:
    """A day/night arrival-rate modulation: ``rate(t) = base · scale(t)``.

    One sinusoidal cycle of ``day_length`` seconds, swinging between
    ``1 - amplitude`` (the trough, at the start of the cycle) and
    ``1 + amplitude`` (the peak, half a cycle in); the mean over a whole
    cycle is exactly the base rate, so ``--rate`` keeps meaning the average
    offered load.  Applied by thinning, so the modulated schedule is still
    a pure function of the generator's seed.
    """

    def __init__(self, day_length: float, amplitude: float = 0.8) -> None:
        _require_finite(day_length=day_length)
        if day_length <= 0:
            raise ConfigurationError("diurnal day_length must be > 0 seconds")
        if not 0.0 < amplitude < 1.0:
            raise ConfigurationError(
                "diurnal amplitude must be in (0, 1): the trough rate "
                "base*(1-amplitude) has to stay positive"
            )
        self.day_length = float(day_length)
        self.amplitude = float(amplitude)

    @property
    def peak(self) -> float:
        """The scale factor at the top of the cycle (thinning's envelope)."""
        return 1.0 + self.amplitude

    def scale(self, at: float) -> float:
        """The rate multiplier at ``at`` seconds (trough at 0, peak mid-cycle)."""
        phase = 2.0 * math.pi * (at / self.day_length)
        return 1.0 - self.amplitude * math.cos(phase)

    def keeps(self, at: float, rng: random.Random) -> bool:
        """One thinning decision: keep a peak-rate arrival at ``at``?"""
        return rng.random() * self.peak < self.scale(at)


class PoissonArrivals:
    """Deterministic Poisson arrival schedule with a weighted operation mix.

    ``rate`` is the aggregate arrival rate in requests/second; each arrival's
    operation is an independent weighted draw from ``mix``.  The schedule is
    materialised eagerly by :meth:`schedule` — open-loop load generation
    wants the full timetable before the first request goes out, and a few
    thousand ``Arrival`` tuples are cheap.  ``diurnal`` thins the process to
    the profile's day/night cycle (``rate`` stays the cycle average).
    """

    def __init__(
        self,
        rate: float,
        duration: float,
        mix: Dict[str, float] | None = None,
        seed: int = 1,
        diurnal: Optional[DiurnalProfile] = None,
    ) -> None:
        _require_finite(rate=rate, duration=duration)
        if rate <= 0:
            raise ConfigurationError("arrival rate must be > 0 requests/second")
        if duration <= 0:
            raise ConfigurationError("arrival duration must be > 0 seconds")
        self.rate = float(rate)
        self.duration = float(duration)
        self.mix = dict(DEFAULT_MIX if mix is None else mix)
        if not self.mix:
            raise ConfigurationError("operation mix must not be empty")
        unknown = set(self.mix) - set(MIX_OPERATIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown operations in mix: {sorted(unknown)}; "
                f"expected a subset of {sorted(MIX_OPERATIONS)}"
            )
        self.seed = seed
        self.diurnal = diurnal

    def schedule(self) -> List[Arrival]:
        """The full arrival timetable for one run (same seed, same table)."""
        rng = random.Random(self.seed)
        operations = sorted(self.mix)
        weights = [self.mix[name] for name in operations]
        diurnal = self.diurnal
        peak_rate = self.rate * (diurnal.peak if diurnal is not None else 1.0)
        arrivals: List[Arrival] = []
        clock = 0.0
        while True:
            clock += rng.expovariate(peak_rate)
            if clock >= self.duration:
                break
            if diurnal is not None and not diurnal.keeps(clock, rng):
                continue
            op = rng.choices(operations, weights=weights, k=1)[0]
            arrivals.append(Arrival(at=clock, op=op))
        return arrivals

    @property
    def offered_load(self) -> float:
        """The target request rate (requests/second) this process offers."""
        return self.rate


#: Default in-session read mix of :class:`LogNormalSessions` (joins and
#: leaves come from the lifecycle itself, never from the mix).
DEFAULT_SESSION_MIX: Dict[str, float] = {
    "sample": 0.7,
    "broadcast": 0.1,
    "status": 0.2,
}


class LogNormalSessions:
    """Heavy-tailed session lifecycles: ``join`` → read ops → ``leave``.

    Sessions arrive as a Poisson process (optionally diurnally thinned).
    Each session joins on arrival, issues read-lane operations at
    ``op_rate`` requests/second for a log-normally distributed length
    (median ``exp(μ)``, shape ``sigma`` — the heavy tail measured for
    peer-to-peer session durations: most sessions are short, a few very
    long ones carry most of the op volume), then leaves.  The resulting
    churn is *paired and causal* — every leave is a node that joined
    earlier — unlike the memoryless join/leave coin-flips of the plain
    Poisson mix.

    ``rate`` is the target *aggregate* request rate (requests/second,
    averaged over the schedule): the session arrival rate is derived as
    ``rate / (2 + op_rate · mean_session)`` — each session costs its join,
    its leave, and its expected in-session ops.  ``mean_session`` is the
    *mean* session length in seconds (``μ`` is solved from it and
    ``sigma``, since a log-normal's mean is ``exp(μ + σ²/2)``).

    The schedule is a plain time-sorted list of :class:`Arrival` rows, so it
    saves and replays through the same JSONL trace format as every other
    source.  Leaves are anonymous (the service resolves the departing node),
    which keeps the format unchanged; the lifecycle still shapes the load:
    the network grows while sessions pile up and shrinks as they drain.
    """

    def __init__(
        self,
        rate: float,
        duration: float,
        mean_session: float = 8.0,
        sigma: float = 1.2,
        op_rate: float = 1.0,
        mix: Dict[str, float] | None = None,
        seed: int = 1,
        diurnal: Optional[DiurnalProfile] = None,
    ) -> None:
        _require_finite(
            rate=rate, duration=duration, mean_session=mean_session, sigma=sigma, op_rate=op_rate
        )
        if rate <= 0:
            raise ConfigurationError("arrival rate must be > 0 requests/second")
        if duration <= 0:
            raise ConfigurationError("arrival duration must be > 0 seconds")
        if mean_session <= 0:
            raise ConfigurationError("mean_session must be > 0 seconds")
        if sigma <= 0:
            raise ConfigurationError("sigma must be > 0 (the heavy-tail shape)")
        if op_rate < 0:
            raise ConfigurationError("op_rate must be >= 0 requests/second")
        self.mix = dict(DEFAULT_SESSION_MIX if mix is None else mix)
        if not self.mix:
            raise ConfigurationError("session mix must not be empty")
        bad = set(self.mix) - (set(MIX_OPERATIONS) - {"join", "leave"})
        if bad:
            raise ConfigurationError(
                f"session mix holds {sorted(bad)}; joins and leaves come from "
                "the session lifecycle — the mix selects the in-session read "
                "operations only"
            )
        self.rate = float(rate)
        self.duration = float(duration)
        self.mean_session = float(mean_session)
        self.sigma = float(sigma)
        self.op_rate = float(op_rate)
        self.seed = seed
        self.diurnal = diurnal
        #: Requests one session contributes on average: join + leave + ops.
        self.requests_per_session = 2.0 + self.op_rate * self.mean_session
        self.session_rate = self.rate / self.requests_per_session
        # exp(mu + sigma^2/2) == mean_session  =>  the tail median exp(mu).
        self.mu = math.log(self.mean_session) - self.sigma * self.sigma / 2.0

    def schedule(self) -> List[Arrival]:
        """The full lifecycle timetable, time-sorted (same seed, same table).

        Sessions *arrive* within ``duration``; a long-tailed session's ops
        and leave may extend past it — truncating them would cut exactly the
        tail the generator exists to exercise.
        """
        rng = random.Random(self.seed)
        operations = sorted(self.mix)
        weights = [self.mix[name] for name in operations]
        diurnal = self.diurnal
        peak_rate = self.session_rate * (diurnal.peak if diurnal is not None else 1.0)
        arrivals: List[Arrival] = []
        clock = 0.0
        while True:
            clock += rng.expovariate(peak_rate)
            if clock >= self.duration:
                break
            if diurnal is not None and not diurnal.keeps(clock, rng):
                continue
            length = rng.lognormvariate(self.mu, self.sigma)
            arrivals.append(Arrival(at=clock, op="join"))
            if self.op_rate > 0:
                op_clock = clock
                while True:
                    op_clock += rng.expovariate(self.op_rate)
                    if op_clock >= clock + length:
                        break
                    op = rng.choices(operations, weights=weights, k=1)[0]
                    arrivals.append(Arrival(at=op_clock, op=op))
            arrivals.append(Arrival(at=clock + length, op="leave"))
        arrivals.sort(key=lambda arrival: arrival.at)
        return arrivals

    @property
    def offered_load(self) -> float:
        """The target aggregate request rate (requests/second)."""
        return self.rate


def save_arrival_trace(path: str, arrivals: Sequence[Arrival]) -> None:
    """Write a schedule as replayable JSONL (one ``{"at", "op"}`` per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for arrival in arrivals:
            handle.write(json.dumps({"at": arrival.at, "op": arrival.op}) + "\n")


def load_arrival_trace(path: str) -> List[Arrival]:
    """Read a JSONL arrival schedule back, validated and time-ordered."""
    arrivals: List[Arrival] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                at = float(entry["at"])
                op = entry["op"]
            except (ValueError, TypeError, KeyError) as error:
                raise ConfigurationError(
                    f"{path}:{line_number}: malformed arrival line ({error})"
                )
            if op not in MIX_OPERATIONS:
                raise ConfigurationError(
                    f"{path}:{line_number}: unknown operation {op!r}"
                )
            if not math.isfinite(at) or at < 0:
                raise ConfigurationError(f"{path}:{line_number}: arrival time must be finite, >= 0")
            arrivals.append(Arrival(at=at, op=op))
    arrivals.sort(key=lambda arrival: arrival.at)
    return arrivals
