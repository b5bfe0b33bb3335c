"""Tests for the epoch sampling probe."""

import itertools

import pytest

from repro.obs.probes import EpochProbe
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Engine, ThreadContext
from repro.sim.records import AccessResult, HitLevel


class InspectableMachine:
    """Fake machine exposing the chip inspection surface."""

    def __init__(self, latency=9, level=HitLevel.MEMORY):
        self.latency = latency
        self.level = level

    def access(self, core_id, block, is_write, now):
        return AccessResult(self.level, self.latency, self.latency, 0, 0, 0)

    def queue_depths(self, now):
        return {"l2": 0.5, "memory": 2.0}

    def l2_occupancy_share(self):
        return {0: 0.75, 1: 0.25}


class PlainMachine:
    """Fake machine without the inspection surface (engine-test style)."""

    def access(self, core_id, block, is_write, now):
        return AccessResult(HitLevel.L2, 10, 10, 0, 0, 0)


def make_thread(tid=0, vm=0, core=0, measured=50):
    stream = itertools.cycle([(tid * 1000 + 1, 0, 0)])
    return ThreadContext(tid, vm, core, stream, measured_refs=measured,
                         warmup_refs=0)


def run_probed(machine, threads, epoch=100):
    hub = Telemetry()
    probe = EpochProbe(machine, threads, epoch, hub)
    result = Engine(machine, threads, probe=probe).run()
    return hub, probe, result


class TestEpochSampling:
    def test_series_recorded_per_vm(self):
        threads = [make_thread(tid=0, vm=0), make_thread(tid=1, vm=1, core=1)]
        hub, probe, _result = run_probed(InspectableMachine(), threads)
        for vm in (0, 1):
            for metric in ("miss_rate", "miss_latency", "l2_share"):
                assert f"vm{vm}.{metric}" in hub.series
        assert "queue.l2" in hub.series
        assert "queue.memory" in hub.series
        assert probe.samples >= 2

    def test_sample_times_on_epoch_grid(self):
        hub, _probe, result = run_probed(
            InspectableMachine(), [make_thread()], epoch=100)
        times = hub.series["vm0.miss_rate"].times
        # every sample except the closing one lands past an epoch edge
        assert all(t >= 100 for t in times)
        assert times == sorted(times)
        assert times[-1] == result.final_time

    def test_miss_rate_deltas_not_cumulative(self):
        """A memory-bound VM has miss rate 1.0 in *every* epoch; a
        cumulative (non-delta) implementation would still pass at 1.0,
        so also check the latency value equals the per-miss latency."""
        hub, _probe, _result = run_probed(
            InspectableMachine(latency=9, level=HitLevel.MEMORY),
            [make_thread(measured=100)], epoch=50)
        rates = hub.series["vm0.miss_rate"].values
        lats = hub.series["vm0.miss_latency"].values
        active = [(r, l) for r, l in zip(rates, lats) if r > 0]
        assert active
        for rate, lat in active:
            assert rate == pytest.approx(1.0)
            assert lat == pytest.approx(9.0)

    def test_plain_machine_yields_no_chip_series(self):
        hub, _probe, _result = run_probed(PlainMachine(), [make_thread()])
        assert not any(name.startswith("queue.") for name in hub.series)
        shares = hub.series["vm0.l2_share"].values
        assert all(s == 0.0 for s in shares)

    def test_counter_events_emitted(self):
        hub, probe, _result = run_probed(InspectableMachine(), [make_thread()])
        counters = [e for e in hub.trace.spans() if e.ph == "C"]
        by_name = {}
        for event in counters:
            by_name.setdefault(event.name, []).append(event)
        assert set(by_name) == {"miss_rate", "miss_latency", "l2_share",
                                "queue_depth"}
        assert len(by_name["miss_rate"]) == probe.samples
        assert "vm0" in by_name["miss_rate"][0].attrs

    def test_vm_completion_instants(self):
        threads = [make_thread(tid=0, vm=0, measured=10),
                   make_thread(tid=1, vm=1, core=1, measured=30)]
        hub, _probe, result = run_probed(InspectableMachine(), threads)
        instants = {e.name: e.ts for e in hub.trace.spans() if e.ph == "i"}
        assert instants["vm0 complete"] == result.vm_completion_times[0]
        assert instants["vm1 complete"] == result.vm_completion_times[1]

    def test_off_grid_samples_never_open_sub_epoch_windows(self):
        # Regression: after sampling off-grid (e.g. at 250 with
        # epoch=100), grid realignment armed next_due=300 and the next
        # window covered only ~50 cycles, biasing per-window deltas.
        probe = EpochProbe(PlainMachine(), [make_thread()], 100, Telemetry())
        sampled = []
        for now in (250, 260, 300, 349, 350, 470):
            before = probe.samples
            probe.on_step(now)
            if probe.samples > before:
                sampled.append(now)
        assert sampled == [250, 350, 470]
        assert all(b - a >= 100 for a, b in zip(sampled, sampled[1:]))

    def test_invalid_epoch_rejected(self):
        with pytest.raises(ValueError):
            EpochProbe(PlainMachine(), [], 0, Telemetry())

    def test_probe_does_not_change_results(self):
        threads_a = [make_thread(tid=0, vm=0), make_thread(tid=1, vm=1, core=1)]
        threads_b = [make_thread(tid=0, vm=0), make_thread(tid=1, vm=1, core=1)]
        bare = Engine(InspectableMachine(), threads_a).run()
        _hub, _probe, probed = run_probed(InspectableMachine(), threads_b)
        assert bare.vm_completion_times == probed.vm_completion_times
        assert bare.final_time == probed.final_time
        assert set(bare.thread_stats) == set(probed.thread_stats)
        for tid, a in bare.thread_stats.items():
            b = probed.thread_stats[tid]
            assert a.level_counts == b.level_counts
            assert a.latency_cycles == b.latency_cycles


class TestProbeSlot:
    """Epoch sampling needs an engine with a probe slot; the engines
    without one refuse it instead of returning no series."""

    @pytest.mark.parametrize("overrides", [
        dict(slots_per_core=2),
        dict(rebind="random"),
    ])
    def test_engines_without_a_probe_refuse_sampling(self, overrides):
        from repro.core.experiment import ExperimentSpec, run_experiment
        from repro.errors import ConfigurationError

        spec = ExperimentSpec(mix="mix1", measured_refs=300, seed=1,
                              **overrides)
        with pytest.raises(ConfigurationError, match="epoch probe"):
            run_experiment(spec, use_cache=False, telemetry=Telemetry(),
                           epoch=1000)
        # without sampling the same spec runs
        assert run_experiment(spec, use_cache=False).final_time > 0

    def test_batched_probe_observes_the_engine(self):
        from repro.core.experiment import ExperimentSpec, run_experiment

        spec = ExperimentSpec(mix="mix1", measured_refs=300, seed=1,
                              engine_mode="batched")
        result = run_experiment(spec, use_cache=False, telemetry=Telemetry(),
                                epoch=1000)
        # the chip never sees a batched run's references: the shares
        # come from the engine's own occupancy model
        shares = [value for name, points in result.series.items()
                  if name.endswith(".l2_share") for _t, value in points]
        assert any(share > 0 for share in shares)
