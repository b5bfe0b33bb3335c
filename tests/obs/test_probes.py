"""Tests for the epoch sensor, its window, and the sampling probe."""

import itertools

import pytest

from repro.obs.probes import Delta, EpochProbe, SensingWindow, Sensor
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


class FakeStats:
    def __init__(self, l1_misses=0, l2_misses=0, refs=0,
                 miss_latency_cycles=0, think_cycles=0):
        self.l1_misses = l1_misses
        self.l2_misses = l2_misses
        self.refs = refs
        self.miss_latency_cycles = miss_latency_cycles
        self.think_cycles = think_cycles


class FakeThread:
    def __init__(self, tid, vm_id, stats, issued=0, core_id=0):
        self.thread_id = tid
        self.vm_id = vm_id
        self.core_id = core_id
        self.stats = stats
        self.issued = issued


class DomainMachine:
    """Fake chip: two cores, one L2 domain each."""

    class config:
        num_cores = 2

    def domain_of_core(self, core):
        return core

    def l2_domain_queue_depths(self, now):
        return [0.5, 0.0]


class TestSensor:
    def test_window_reports_deltas_not_totals(self):
        stats = FakeStats(l1_misses=10, l2_misses=4, refs=100)
        sensor = Sensor(object(), [FakeThread(0, 0, stats)])
        first = sensor.window(1000)
        assert first.vms[0].l2_misses == 4
        assert first.threads[0].l2_misses == 4
        stats.l2_misses = 7
        second = sensor.window(2000)
        assert second.vms[0].l2_misses == 3
        assert second.threads[0].l2_misses == 3

    def test_vm_delta_is_the_sum_of_its_threads(self):
        a = FakeStats(l1_misses=10, l2_misses=4, refs=100,
                      miss_latency_cycles=300, think_cycles=50)
        b = FakeStats(l1_misses=6, l2_misses=1, refs=40,
                      miss_latency_cycles=90, think_cycles=20)
        other = FakeStats(l1_misses=99, l2_misses=99, refs=99)
        threads = [FakeThread(0, 0, a), FakeThread(1, 1, other, core_id=1),
                   FakeThread(2, 0, b, core_id=1)]
        sensor = Sensor(object(), threads)
        sensor.window(10)
        a.refs, a.l2_misses, b.refs, b.think_cycles = 130, 9, 45, 26
        window = sensor.window(20)
        vm = window.vms[0]
        members = [window.threads[0], window.threads[2]]
        for name in ("refs", "l1_misses", "l2_misses",
                     "miss_latency_cycles", "think_cycles"):
            assert getattr(vm, name) == sum(getattr(d, name)
                                            for d in members)
        assert (vm.refs, vm.l2_misses, vm.think_cycles) == (35, 5, 6)
        assert vm.thread_id is None and vm.core_id is None
        assert window.vms[1].refs == 0

    def test_dicts_are_in_sorted_id_order(self):
        threads = [FakeThread(tid, vm, FakeStats())
                   for tid, vm in ((5, 2), (1, 0), (3, 1), (0, 2))]
        window = Sensor(object(), threads).window(10)
        assert list(window.threads) == [0, 1, 3, 5]
        assert list(window.vms) == [0, 1, 2]

    def test_thread_missing_from_queues_still_counts_for_its_vm(self):
        # thread 1 departed: the engine's queues omit it, so policies
        # never see it, but its VM's delta keeps its activity
        stats = [FakeStats(refs=10), FakeStats(refs=7)]
        threads = [FakeThread(0, 0, stats[0]),
                   FakeThread(1, 0, stats[1], core_id=1)]
        window = Sensor(object(), threads).window(10, queues={0: [0]})
        assert list(window.threads) == [0]
        assert window.vms[0].refs == 17

    def test_issued_is_per_thread_mean(self):
        threads = [FakeThread(0, 0, FakeStats(), issued=100),
                   FakeThread(1, 0, FakeStats(), issued=50),
                   FakeThread(2, 1, FakeStats(), issued=7),
                   FakeThread(3, 1, FakeStats(), issued=8)]
        window = Sensor(object(), threads).window(10)
        assert window.vms[0].issued == 75
        assert window.vms[1].issued == 7.5
        assert window.threads[1].issued == 50

    def test_window_carries_now_and_queues(self):
        sensor = Sensor(object(), [FakeThread(0, 0, FakeStats())])
        queues = {0: [0]}
        window = sensor.window(500, queues=queues)
        assert isinstance(window, SensingWindow)
        assert window.now == 500
        assert window.queues == queues

    def test_machine_without_inspection_methods_is_fine(self):
        sensor = Sensor(object(), [FakeThread(0, 2, FakeStats())])
        window = sensor.window(100)
        assert window.domain_queues is None
        assert window.domain_of_core is None
        assert window.threads_on_domain(0) == []
        assert window.domain_pressure(0) == 0.0
        assert (sensor.num_cores, sensor.inverse_speeds) == (None, None)
        assert sensor.l2_occupancy() == {}
        assert sensor.queue_depths(100) is None

    def test_domain_signals_from_the_machine(self):
        hot = FakeStats(l1_misses=10, miss_latency_cycles=400, refs=20)
        idle = FakeStats(l1_misses=5, miss_latency_cycles=100)
        threads = [FakeThread(0, 0, hot), FakeThread(1, 1, idle, core_id=1)]
        sensor = Sensor(DomainMachine(), threads)
        window = sensor.window(100)
        assert sensor.num_cores == 2
        assert window.domain_of_core == [0, 1]
        assert window.domain_queues == [0.5, 0.0]
        assert [d.thread_id for d in window.threads_on_domain(1)] == [1]
        # mean miss latency 40 inflated by the 0.5 backlog; domain 1's
        # thread issued no refs, so it has no contention signal
        assert window.domain_pressure(0) == pytest.approx(60.0)
        assert window.domain_pressure(1) == 0.0

    def test_delta_rates(self):
        delta = Delta(0, refs=10, l1_misses=4, l2_misses=1,
                      miss_latency_cycles=80, think_cycles=30)
        assert delta.miss_rate == 0.25
        assert delta.mean_miss_latency == 20.0
        assert delta.stall_per_ref == 8.0
        assert delta.think_per_ref == 3.0
        assert Delta(0).miss_rate == Delta(0).stall_per_ref == 0.0


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
