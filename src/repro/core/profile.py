"""Offline execution profiler (Section 4.1 of the paper).

The profiler runs an FG application alone, samples its progress (retired
instructions) every ``dT = 5 ms`` through the performance counters, and
records the resulting ``(duration, progress)`` segments.  Progress per
segment varies with the instruction mix, so the profile is the reference
the online predictor compares contended progress against.

Profiling uses the same jittered sleep-timer machinery as the online
runtime, so recorded segment durations ``dT_i`` differ slightly from the
nominal ``dT`` exactly as on the real system; Dirigent accounts for that
difference when computing penalties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ProfileError
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.workloads.spec import WorkloadSpec

#: The paper's sampling period: 5 ms, chosen to balance prediction accuracy
#: against the <100 us per-invocation overhead.
DEFAULT_SAMPLING_PERIOD_S = 5e-3


@dataclass(frozen=True)
class ProfileSegment:
    """One profiled sampling segment.

    Attributes:
        duration_s: Measured wall time of the segment (``dT_i``).
        progress: Instructions retired during the segment.
    """

    duration_s: float
    progress: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ProfileError("segment duration must be > 0")
        if self.progress <= 0:
            raise ProfileError("segment progress must be > 0")

    @property
    def rate(self) -> float:
        """Profiled progress rate (instructions per second)."""
        return self.progress / self.duration_s


@dataclass(frozen=True)
class ExecutionProfile:
    """The offline profile of one FG workload: an ordered segment list.

    Attributes:
        workload_name: Name of the profiled workload.
        sampling_period_s: Nominal sampling period used while profiling.
        segments: Profiled segments in execution order.
    """

    workload_name: str
    sampling_period_s: float
    segments: Tuple[ProfileSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ProfileError(
                "profile of %r has no segments" % self.workload_name
            )
        boundaries = []
        total = 0.0
        for segment in self.segments:
            total += segment.progress
            boundaries.append(total)
        object.__setattr__(self, "_boundaries", tuple(boundaries))

    @property
    def num_segments(self) -> int:
        """Number of profiled segments."""
        return len(self.segments)

    @property
    def total_progress(self) -> float:
        """Total profiled instructions."""
        return self._boundaries[-1]  # type: ignore[attr-defined]

    @property
    def total_duration_s(self) -> float:
        """Total profiled (standalone) execution time."""
        return sum(s.duration_s for s in self.segments)

    def boundaries(self) -> Tuple[float, ...]:
        """Cumulative progress at the end of each segment."""
        return self._boundaries  # type: ignore[attr-defined]

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        return {
            "workload_name": self.workload_name,
            "sampling_period_s": self.sampling_period_s,
            "segments": [
                {"duration_s": s.duration_s, "progress": s.progress}
                for s in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionProfile":
        """Deserialize a profile produced by :meth:`to_dict`.

        Raises:
            ProfileError: if required fields are missing or invalid.
        """
        try:
            segments = tuple(
                ProfileSegment(
                    duration_s=item["duration_s"], progress=item["progress"]
                )
                for item in data["segments"]
            )
            return cls(
                workload_name=data["workload_name"],
                sampling_period_s=data["sampling_period_s"],
                segments=segments,
            )
        except (KeyError, TypeError) as exc:
            raise ProfileError("malformed profile data: %s" % exc) from exc

    def save(self, path) -> None:
        """Write the profile to ``path`` as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)

    @classmethod
    def load(cls, path) -> "ExecutionProfile":
        """Read a profile previously written by :meth:`save`."""
        import json

        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ProfileError("cannot load profile from %s: %s" % (path, exc))
        return cls.from_dict(data)


class SamplingError(ProfileError):
    """The profiling sampler observed an inconsistent counter sequence."""


class _Sampler:
    """The profiling run's timer callback and capture buffers.

    Each call reads the profiled core's counters and reschedules itself
    one period later; :meth:`on_completion` collects the execution
    records.
    """

    def __init__(self, machine: Machine, core: int, period_s: float) -> None:
        self._machine = machine
        self._core = core
        self._period = period_s
        self.samples: List[Tuple[float, float]] = []
        self.completions: List[object] = []

    def __call__(self) -> None:
        machine = self._machine
        snap = machine.read_counters(self._core)
        self.samples.append((snap.time_s, snap.instructions))
        machine.schedule_wakeup(self._period, self)

    def on_completion(self, proc, record) -> None:
        self.completions.append(record)


class OfflineProfiler:
    """Profiles an FG workload running alone on a fresh machine.

    The profiler performs ``warmup_executions`` full executions first (to
    let the simulated cache reach steady state, mirroring warm profiling
    runs on real hardware) and then records the next execution.
    """

    def __init__(
        self,
        machine_config: Optional[MachineConfig] = None,
        sampling_period_s: float = DEFAULT_SAMPLING_PERIOD_S,
        warmup_executions: int = 1,
        core: int = 0,
    ) -> None:
        if sampling_period_s <= 0:
            raise ProfileError("sampling period must be > 0")
        if warmup_executions < 0:
            raise ProfileError("warmup_executions must be >= 0")
        self._config = machine_config or MachineConfig()
        self._period = sampling_period_s
        self._warmup = warmup_executions
        self._core = core

    def profile(self, spec: WorkloadSpec) -> ExecutionProfile:
        """Run ``spec`` alone and return its execution profile."""
        if not spec.is_foreground:
            raise ProfileError("only FG workloads are profiled")
        machine = Machine(self._config)
        machine.spawn(spec, core=self._core, nice=-5)
        sampler = _Sampler(machine, self._core, self._period)
        machine.add_completion_listener(sampler.on_completion)
        machine.schedule_wakeup(self._period, sampler)

        # Warmup executions: run until enough completions are seen.  The
        # machine advances in blocks (batched fast path); overshooting
        # the recorded completion only appends samples past the window,
        # which segments_from_samples filters out.
        block = 64
        guard_ticks = 0
        max_ticks = int(600.0 / self._config.tick_s)
        try:
            while len(sampler.completions) <= self._warmup:
                machine.run_ticks(block)
                guard_ticks += block
                if guard_ticks > max_ticks:
                    raise ProfileError(
                        "profiling of %r did not complete executions in "
                        "time" % spec.name
                    )
        finally:
            # The sampler and the machine refer to each other.
            machine.close()

        record = sampler.completions[self._warmup]
        segments = segments_from_samples(
            sampler.samples, record.start_s, record.end_s, record.instructions
        )
        return ExecutionProfile(
            workload_name=spec.name,
            sampling_period_s=self._period,
            segments=tuple(segments),
        )


def segments_from_samples(
    samples: List[Tuple[float, float]],
    start_s: float,
    end_s: float,
    instructions: float,
) -> List[ProfileSegment]:
    """Turn ``(time, counter)`` samples into one execution's segments.

    ``samples`` are cumulative instruction-counter readings; the segments
    cover exactly the window ``(start_s, end_s)`` in which the execution
    retired ``instructions`` instructions.  Used by both the offline and
    the online profiler.
    """
    window = [(t, i) for (t, i) in samples if start_s < t < end_s]
    if len(window) < 2:
        raise SamplingError(
            "profiled execution too short for the sampling period"
        )
    # Counter value when the execution started: extrapolate backwards
    # from the first sample at the initially observed rate — the same
    # uniform-rate-within-segment assumption Equation 1 makes.
    (t0, i0), (t1, i1) = window[0], window[1]
    rate = (i1 - i0) / (t1 - t0)
    counter_start = i0 - rate * (t0 - start_s)

    segments: List[ProfileSegment] = []
    prev_t, prev_i = start_s, counter_start
    for t, i in window:
        progress = i - prev_i
        duration = t - prev_t
        if progress > 0 and duration > 0:
            segments.append(
                ProfileSegment(duration_s=duration, progress=progress)
            )
        prev_t, prev_i = t, i
    # Final partial segment up to completion.
    tail_progress = (counter_start + instructions) - prev_i
    tail_duration = end_s - prev_t
    if tail_progress > 0 and tail_duration > 0:
        segments.append(
            ProfileSegment(duration_s=tail_duration, progress=tail_progress)
        )
    if not segments:
        raise SamplingError("profiling produced no segments")
    return segments
