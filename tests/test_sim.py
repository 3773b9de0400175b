"""Monte Carlo engine: reproducibility, chunking, the two sweep workers, and
exact scenarios."""

import importlib
import inspect
import pkgutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mflq
from mflq import sim
from mflq.errors import FiniteEscapeError, ValidationError
from mflq.presets import (
    example31,
    example31_null_control,
    random_spd,
    scalar_classic,
)
from mflq.problem import (
    ControlSpec,
    InitialLaw,
    MatrixPath,
    NoiseAffinePath,
    TimeGrid,
    make_problem,
)
from mflq.sim import CHUNK, mean_ode, simulate
from mflq.synthesis import synthesize


def noisy_classic(n_steps=200):
    g = TimeGrid(0.0, 1.0, n_steps)
    return make_problem(1, 1, g, B=1.0, R=1.0, G=1.0, sigma=(1.0, 0.0))


def test_same_seed_bitwise_reproducible():
    p = noisy_classic()
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    a = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=7,
                 keep_costs=True)
    b = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=7,
                 keep_costs=True)
    assert a.cost_mean == b.cost_mean
    assert a.cost_stderr == b.cost_stderr
    np.testing.assert_array_equal(a.per_path_costs, b.per_path_costs)
    c = simulate(p, sol.strategy, law, n_paths=500, n_steps=200, seed=8)
    assert c.cost_mean != a.cost_mean


def test_path_draws_do_not_depend_on_batch_size():
    """Counter-based streams are keyed by chunk, so the first paths of a
    larger run coincide with a smaller run path-for-path."""
    p = noisy_classic(100)
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    small = simulate(p, sol.strategy, law, n_paths=CHUNK, n_steps=100, seed=3,
                     keep_costs=True)
    big = simulate(p, sol.strategy, law, n_paths=CHUNK + 7, n_steps=100, seed=3,
                   keep_costs=True)
    np.testing.assert_array_equal(
        big.per_path_costs[:CHUNK], small.per_path_costs
    )


def test_chunk_holds_one_increment_buffer():
    """Increments are drawn in row blocks straight into the step-major
    buffer, so a full chunk holds no second (paths, K) array: its traced
    peak stays below 1.5 times the buffer."""
    n_steps = 150
    p = noisy_classic(n_steps)
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    tracemalloc.start()
    try:
        simulate(p, sol.strategy, law, n_paths=CHUNK, n_steps=n_steps, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * CHUNK * n_steps * 8


def test_workers_hold_half_a_chunk_of_increments():
    """A 40,000-path call, ten quarter-chunk segments over two workers,
    holds two (K, SEGMENT) increment buffers: its traced peak stays below
    0.9 times one (K, CHUNK) buffer (two half-chunk buffers read 1.33)."""
    n_steps = 150
    p = noisy_classic(n_steps)
    law = InitialLaw.deterministic([1.0])
    sol = synthesize(p)
    tracemalloc.start()
    try:
        simulate(p, sol.strategy, law, n_paths=40_000, n_steps=n_steps, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * CHUNK * n_steps * 8


def test_deterministic_problem_has_zero_stderr():
    # no diffusion, point initial law: every path is the mean path
    p, law = scalar_classic(n_steps=300)
    sol = synthesize(p)
    rep = simulate(p, sol.strategy, law, n_paths=50, n_steps=300, seed=0)
    assert rep.cost_stderr == 0.0
    assert rep.cost_mean == pytest.approx(0.5, abs=1e-6)
    # the gap against the exact mean is pure forward-Euler bias here
    assert rep.mean_gap < 1e-5


def test_mean_ode_matches_closed_form():
    p, _ = scalar_classic(n_steps=1000)
    sol = synthesize(p)
    EX, EU = mean_ode(p, sol.strategy, [1.0])
    s = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_allclose(EX[:, 0], (2.0 - s) / 2.0, atol=1e-7)
    np.testing.assert_allclose(EU[:, 0], -0.5 * np.ones_like(s), atol=1e-7)


def test_diverging_strategy_raises_finite_escape():
    """A feedback of 900 makes the state mean grow like exp(900 s).

    RK4 multiplies it by about 48 per step at h = 0.005, so the mean
    crosses the blow-up threshold at node 8; the cost must not come back
    as NaN.
    """
    p, law = scalar_classic(n_steps=200)
    spec = ControlSpec(
        feedback=MatrixPath.constant([[900.0]]),
        mean_feedback=MatrixPath.constant([[0.0]]),
        offset=NoiseAffinePath.zero((1,)),
    )
    for run in (
        lambda: mean_ode(p, spec, law.mean),
        lambda: simulate(p, spec, law, n_paths=16, n_steps=200, seed=0),
    ):
        with pytest.raises(FiniteEscapeError) as info:
            run()
        assert info.value.quantity == "state mean"
        assert info.value.node == 8
        assert info.value.time == pytest.approx(0.04)


def test_sample_mean_tracks_exact_mean():
    p, law = example31()
    sol = synthesize(p)
    rep = simulate(p, sol.strategy, law, n_paths=4000, n_steps=150, seed=11)
    # the report's mean_path is the ODE mean; the sampled average should
    # agree within Monte Carlo resolution
    assert rep.mean_path.shape == rep.sample_mean_path.shape
    assert rep.mean_gap < 0.05


def test_null_control_cost_is_exact_on_example():
    """Zero control freezes the example's state at its initial value (the
    drift and diffusion act only through the control), so the cost is the
    terminal weight (G + G_bar) x^2 = 2 for a point start at x = 1."""
    p, law = example31()
    zero = ControlSpec.zero(1, 1)
    rep = simulate(p, zero, law, n_paths=2000, n_steps=100, seed=5)
    assert rep.cost_mean == pytest.approx(2.0, abs=1e-12)
    assert rep.cost_stderr == 0.0


def test_adapted_null_strategy_reaches_zero_terminal_state():
    """From the Brownian-loaded initial state xi = W(t), the example's
    distinguished open-loop control (frozen at the entry time, sharing the
    same Brownian draw as the initial state) steers every path linearly to
    zero, so the terminal state and the cost vanish pathwise."""
    t = 0.5
    p, _ = example31(t=t)
    law = InitialLaw(
        mean=np.zeros(1),
        brownian_load=np.array([1.0]),
        indep_load=np.zeros((1, 1)),
    )
    spec = example31_null_control(t)
    rep = simulate(p, spec, law, n_paths=3000, n_steps=200, seed=13)
    assert abs(rep.terminal_mean[0]) < 1e-13
    assert rep.terminal_second_moment[0, 0] < 1e-26
    assert abs(rep.cost_mean) < 1e-25


def test_mean_ode_refuses_a_misshaped_initial_mean():
    p, _ = scalar_classic(n_steps=20)
    with pytest.raises(ValidationError, match=r"initial mean: expected shape \(1,\)"):
        mean_ode(p, ControlSpec.zero(1, 1), [1.0, 2.0])


def test_simulate_validates_inputs():
    p, law = scalar_classic(n_steps=50)
    sol = synthesize(p)
    with pytest.raises(ValidationError):
        simulate(p, sol.strategy, law, n_paths=0, n_steps=50, seed=0)
    with pytest.raises(ValidationError):
        bad_law = InitialLaw.deterministic([1.0, 2.0])
        simulate(p, sol.strategy, bad_law, n_paths=10, n_steps=50, seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_simulate_refuses_seeds_outside_the_key_range(seed):
    """The seed is one unsigned 64-bit key word; outside [0, 2**64) it would
    alias another seed's draws."""
    p, law = scalar_classic(n_steps=20)
    spec = ControlSpec.zero(1, 1)
    with pytest.raises(ValidationError, match="seed"):
        simulate(p, spec, law, n_paths=10, n_steps=20, seed=seed)
    top = simulate(p, spec, law, n_paths=10, n_steps=20, seed=2**64 - 1)
    assert top.seed == 2**64 - 1


def test_frozen_offset_uses_entry_time_brownian_value():
    """A pure-offset control with the noise part frozen at the entry time
    applies u = W(t0) throughout; started from zero state with dX = u ds the
    terminal state is X(T) = W(t0) * span, and with G = 1 the expected cost
    is span^2 * t0 on average."""
    t0 = 0.25
    g = TimeGrid(t0, 1.25, 100)
    p = make_problem(1, 1, g, B=1.0, G=1.0)
    law = InitialLaw.deterministic([0.0])
    spec = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath(MatrixPath.constant([0.0]), MatrixPath.constant([1.0]),
                               frozen_at_start=True),
    )
    rep = simulate(p, spec, law, n_paths=200000, n_steps=100, seed=21)
    assert rep.cost_mean == pytest.approx(t0, rel=0.05)
    # and the unfrozen variant integrates the running Brownian value instead
    spec_run = ControlSpec(
        feedback=MatrixPath.constant(np.zeros((1, 1))),
        mean_feedback=MatrixPath.constant(np.zeros((1, 1))),
        offset=NoiseAffinePath.of([0.0], [1.0]),
    )
    rep_run = simulate(p, spec_run, law, n_paths=200000, n_steps=100, seed=21)
    # E[(int_t0^T W ds)^2] > E[(W(t0) span)^2] for this horizon
    assert rep_run.cost_mean > rep.cost_mean


BATCH_FIELDS = ("per_path_costs", "cost_mean", "cost_stderr", "sample_mean_path",
                "mean_gap", "terminal_mean", "terminal_second_moment")


@pytest.mark.parametrize("n_paths", [2000, CHUNK, CHUNK + sim.SEGMENT + 3,
                                     CHUNK + 2 * sim.SEGMENT + 3, 2 * CHUNK + 100])
def test_batch_gives_each_strategy_its_single_call_report(n_paths):
    """Each strategy of a batch, swept on the batch's one draw, reports
    bitwise what simulate of it alone reports at the same seed: one segment
    swept inline, segments on two workers, a chunk and a merged tail, a chunk
    and two segments whose last takes the merged tail, and several chunks."""
    p, law = random_spd(3, n_steps=20)
    opt = synthesize(p).strategy
    bumped = ControlSpec(opt.feedback.add_constant(0.5), opt.mean_feedback,
                         opt.offset)
    specs = (opt, ControlSpec.zero(p.n, p.m), bumped)
    batch = sim._simulate_many(p, iter(specs), law, n_paths, 20, seed=5,
                               keep_costs=True)
    assert len(batch) == len(specs)
    for spec, (rep, extra_out) in zip(specs, batch):
        assert extra_out == []
        alone = simulate(p, spec, law, n_paths, 20, seed=5, keep_costs=True)
        for name in BATCH_FIELDS:
            np.testing.assert_array_equal(getattr(rep, name), getattr(alone, name),
                                          err_msg=f"{name} at {n_paths} paths")
    costs = [rep.cost_mean for rep, _ in batch]
    assert len(set(costs)) == len(costs)


class Planted(Exception):
    """A failure a test plants in the sweep or in a draw."""


def _simulate_noisy(p, n_paths=CHUNK + 100, **kwargs):
    """Simulate p's optimal strategy at 20 steps; by default three segments."""
    law = InitialLaw.deterministic([1.0])
    return simulate(p, synthesize(p).strategy, law, n_paths=n_paths, n_steps=20,
                    seed=4, **kwargs)


def test_background_draws_leave_no_thread(monkeypatch):
    """One worker thread per multi-segment call, joined before simulate
    returns, and joined as well when the sweep raises."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    p = noisy_classic(20)
    before = threading.enumerate()
    _simulate_noisy(p)
    assert len(started) == 1
    assert threading.enumerate() == before

    def failing(k, dX, dU, W):
        if k == 10:
            raise Planted("in the sweep")
        return W

    with pytest.raises(Planted, match="in the sweep"):
        _simulate_noisy(p, extras=(failing,))
    assert threading.enumerate() == before


def test_failed_background_draw_surfaces(monkeypatch):
    """A draw that fails in the worker raises the same exception from
    simulate, and no thread is left behind."""
    failure = Planted("chunk 1")
    chunk_rng = sim._chunk_rng

    def failing(seed, chunk_index):
        if chunk_index == 1:
            raise failure
        return chunk_rng(seed, chunk_index)

    monkeypatch.setattr(sim, "_chunk_rng", failing)
    before = threading.enumerate()
    with pytest.raises(Planted) as info:
        _simulate_noisy(noisy_classic(20), n_paths=CHUNK + 1)
    assert info.value is failure
    assert threading.enumerate() == before


def _raised_in_time(call):
    """Run call in a thread of its own, joined within a minute, and return
    the Planted it raised; no thread may outlive it."""
    before = threading.enumerate()
    raised = []

    def run():
        try:
            call()
        except Planted as exc:
            raised.append(exc)

    runner = threading.Thread(target=run)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "simulate deadlocked"
    assert threading.enumerate() == before
    assert len(raised) == 1
    return raised[0]


class _SimEvent(threading.Event):
    """An Event that reports when a wait begins on one that sim made."""

    waited = None   # set to a plain Event by the test that installs this

    def __init__(self):
        super().__init__()
        self.from_sim = sys._getframe(1).f_code.co_filename == sim.__file__

    def wait(self, timeout=None):
        if self.from_sim:
            _SimEvent.waited.set()
        return super().wait(timeout)


def test_failed_first_segment_draw_wakes_the_waiting_worker(monkeypatch):
    """Chunk 0's first-segment draw fails while the other worker waits to
    continue the stream: that worker wakes and stops, and simulate raises
    the same exception."""
    failure = Planted("chunk 0")
    waited = threading.Event()
    chunk_rng = sim._chunk_rng

    class FailingStream:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def standard_normal(self, shape):
            self.calls += 1
            if self.calls == 3:   # the first increment block, after the
                assert waited.wait(timeout=30.0)   # initial draws
                raise failure
            return self.rng.standard_normal(shape)

    def failing(seed, chunk_index):
        rng = chunk_rng(seed, chunk_index)
        return FailingStream(rng) if chunk_index == 0 else rng

    monkeypatch.setattr(sim, "_chunk_rng", failing)
    monkeypatch.setattr(_SimEvent, "waited", waited)
    monkeypatch.setattr(threading, "Event", _SimEvent)
    p = noisy_classic(20)
    assert _raised_in_time(lambda: _simulate_noisy(p, n_paths=CHUNK)) is failure
    assert waited.is_set()


@pytest.mark.parametrize("chunk", [1, 2])
def test_failed_later_chunk_draw_surfaces(chunk, monkeypatch):
    """A chunk past the first fails to open its stream, on whichever worker
    claimed it: simulate raises the same exception, in time."""
    failure = Planted(f"chunk {chunk}")
    chunk_rng = sim._chunk_rng

    def failing(seed, chunk_index):
        if chunk_index == chunk:
            raise failure
        return chunk_rng(seed, chunk_index)

    monkeypatch.setattr(sim, "_chunk_rng", failing)
    p = noisy_classic(20)
    assert _raised_in_time(lambda: _simulate_noisy(p, n_paths=3 * CHUNK)) is failure


def _rendezvous(caller, on_helper):
    """An extra integrand whose first call on the calling thread waits until
    the helper thread has called it, so that both workers sweep; every
    helper call returns on_helper(W)."""
    helper_called = threading.Event()
    first = [True]

    def extra(k, dX, dU, W):
        if threading.get_ident() != caller[0]:
            helper_called.set()
            return on_helper(W)
        if first[0]:
            first[0] = False
            assert helper_called.wait(timeout=30.0), "the helper swept nothing"
        return W

    return extra


def test_failed_extra_on_the_helper_surfaces():
    """An extra integrand that fails on the helper's segment raises the same
    exception from simulate; the calling worker stops after its segment."""
    failure = Planted("on the helper")
    caller = [None]

    def fail(W):
        raise failure

    extra = _rendezvous(caller, fail)
    p = noisy_classic(20)

    def call():
        caller[0] = threading.get_ident()
        _simulate_noisy(p, extras=(extra,))

    assert _raised_in_time(call) is failure


def test_workers_make_no_public_call_off_the_calling_thread(monkeypatch):
    """Every public mflq function, each module binding of it wrapped, runs
    on the calling thread during a three-segment simulate whose helper
    thread sweeps too: a tracer that keeps one span stack sees every call."""
    modules = [mflq] + [importlib.import_module(f"mflq.{info.name}")
                        for info in pkgutil.iter_modules(mflq.__path__)]
    public = {
        id(obj): obj
        for mod in modules[1:]
        for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        and not name.startswith("_")
    }
    exported = [getattr(mflq, name) for name in mflq.__all__]
    assert all(id(fn) in public for fn in exported if inspect.isfunction(fn))
    threads = []

    def wrap(fn):
        def wrapper(*args, **kwargs):
            threads.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {key: wrap(fn) for key, fn in public.items()}
    p = noisy_classic(20)
    strategy = synthesize(p).strategy
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and id(val) in wrappers:
                monkeypatch.setattr(mod, attr, wrappers[id(val)])
    caller = [threading.get_ident()]
    helper_swept = []

    def on_helper(W):
        helper_swept.append(True)
        return W

    rep, _ = mflq.simulate(p, strategy, InitialLaw.deterministic([1.0]),
                           CHUNK + 100, 20, seed=4,
                           extras=(_rendezvous(caller, on_helper),))
    assert rep.n_paths == CHUNK + 100 and helper_swept
    assert ("simulate", caller[0]) in threads
    assert {ident for _, ident in threads} == {caller[0]}


@pytest.mark.parametrize("n_paths", [1, sim.SEGMENT, sim.SEGMENT + sim._MIN_TAIL - 1])
def test_single_segment_run_starts_no_thread(n_paths, monkeypatch):
    def refuse(self):
        raise AssertionError("a single-segment run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = _simulate_noisy(noisy_classic(20), n_paths=n_paths)
    assert rep.n_paths == n_paths


def test_concurrent_calls_under_fast_thread_switching():
    """Three multi-segment calls at once, each with its own draw worker (six
    threads on fewer cores), with the interpreter switching threads every
    microsecond: every call returns the costs of a call made alone."""
    p = noisy_classic(20)
    alone = _simulate_noisy(p, keep_costs=True).per_path_costs
    results = [None] * 3

    def call(i):
        results[i] = _simulate_noisy(p, keep_costs=True).per_path_costs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for costs in results:
        np.testing.assert_array_equal(costs, alone)


def test_path_sums_hold_under_fast_thread_switching():
    """Three calls at once, each with two workers sharing its path sums,
    under microsecond thread switching: every call's sample mean path and
    terminal moments are bitwise those of a call made alone."""
    p = noisy_classic(20)
    names = ("sample_mean_path", "terminal_mean", "terminal_second_moment")
    alone = _simulate_noisy(p, n_paths=3 * CHUNK)
    results = [None] * 3

    def call(i):
        results[i] = _simulate_noisy(p, n_paths=3 * CHUNK)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for rep in results:
        for name in names:
            np.testing.assert_array_equal(getattr(rep, name), getattr(alone, name))
