"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import backend
from repro.sim.engine import Engine, SimulationError


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, order.append, "c")
    engine.schedule(10, order.append, "a")
    engine.schedule(20, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_scheduling_order():
    engine = Engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(5, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(100, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [100]
    assert engine.now == 100


def test_run_until_stops_before_later_events():
    engine = Engine()
    fired = []
    engine.schedule(50, fired.append, 1)
    engine.schedule(150, fired.append, 2)
    engine.run(until=100)
    assert fired == [1]
    engine.run()
    assert fired == [1, 2]


def test_run_until_advances_clock_when_queue_drains():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run(until=500)
    assert engine.now == 500


def test_run_until_advances_clock_past_no_events():
    # Regression: with the next event beyond the horizon, run(until=...)
    # used to return with now still at its old value, so back-to-back
    # run(until=...) windows drifted from wall-of-simulated-time.
    engine = Engine()
    fired = []
    engine.schedule(100, fired.append, 1)
    assert engine.run(until=50) == 0
    assert engine.now == 50
    assert fired == []
    engine.run(until=150)
    assert fired == [1]
    assert engine.now == 150


def test_run_until_with_cancelled_head_still_advances():
    engine = Engine()
    early = engine.schedule(60, lambda: None)
    engine.schedule(150, lambda: None)
    early.cancel()
    engine.run(until=100)
    assert engine.now == 100


def test_run_until_not_past_unprocessed_events_on_max_events():
    # max_events may stop the run early; the clock must not jump over
    # events that were due at or before the horizon.
    engine = Engine()
    fired = []
    engine.schedule(10, fired.append, 1)
    engine.schedule(20, fired.append, 2)
    engine.run(until=100, max_events=1)
    assert fired == [1]
    assert engine.now == 10
    engine.run(until=100)
    assert fired == [1, 2]
    assert engine.now == 100


def test_cancelled_event_is_skipped():
    engine = Engine()
    fired = []
    event = engine.schedule(10, fired.append, "x")
    event.cancel()
    engine.run()
    assert fired == []


def test_cancel_is_idempotent():
    engine = Engine()
    event = engine.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    engine.run()


def test_cannot_schedule_in_the_past():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_events_can_schedule_events():
    engine = Engine()
    result = []

    def chain(n):
        result.append(n)
        if n < 5:
            engine.schedule(10, chain, n + 1)

    engine.schedule(0, chain, 1)
    engine.run()
    assert result == [1, 2, 3, 4, 5]
    assert engine.now == 40


def test_step_processes_single_event():
    engine = Engine()
    fired = []
    engine.schedule(1, fired.append, "a")
    engine.schedule(2, fired.append, "b")
    assert engine.step()
    assert fired == ["a"]
    assert engine.step()
    assert not engine.step()


def test_max_events_limit():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(i, fired.append, i)
    engine.run(max_events=3)
    assert fired == [0, 1, 2]


def test_peek_time_skips_cancelled():
    engine = Engine()
    first = engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    first.cancel()
    assert engine.peek_time() == 9


def test_events_processed_counter():
    engine = Engine()
    for i in range(4):
        engine.schedule(i, lambda: None)
    engine.run()
    assert engine.events_processed == 4


def test_engine_is_not_reentrant():
    engine = Engine()

    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(0, nested)
    engine.run()


def test_pending_counts_live_events_only():
    engine = Engine()
    events = [engine.schedule(i + 1, lambda: None) for i in range(10)]
    timer = engine.schedule_timer(1_000_000, lambda: None)
    assert engine.pending == 11
    for event in events[:4]:
        event.cancel()
    assert engine.pending == 7  # cancelled events no longer counted
    timer.cancel()
    assert engine.pending == 6
    assert engine.pending_total >= 6  # dead entries may still be queued


def test_pending_total_includes_dead_entries():
    engine = Engine()
    event = engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    event.cancel()
    assert engine.pending == 1
    assert engine.pending_total == 2


def test_heap_compaction_drops_dead_entries():
    engine = Engine()
    keeper = engine.schedule(1_000_000, lambda: None)
    events = [engine.schedule(i + 1, lambda: None)
              for i in range(Engine.COMPACT_MIN_DEAD * 2)]
    for event in events:
        event.cancel()
    # More than half of the heap went dead => it was compacted in place
    # (without compaction all 2*COMPACT_MIN_DEAD+1 entries would remain).
    assert engine.pending_total <= Engine.COMPACT_MIN_DEAD
    assert engine.pending == 1
    assert engine.peek_time() == 1_000_000
    engine.run()
    assert engine.now == 1_000_000
    assert not keeper.cancelled


def test_schedule_anon_runs_in_order():
    engine = Engine()
    order = []
    engine.schedule(5, order.append, "a")
    engine.schedule_anon(5, order.append, "b")
    engine.schedule(5, order.append, "c")
    engine.schedule_anon(1, order.append, "first")
    engine.run()
    assert order == ["first", "a", "b", "c"]
    assert engine.events_processed == 4


def test_schedule_anon_rejects_past():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule_anon(-1, lambda: None)


def test_cancelling_a_fired_event_counts_no_dead_entry():
    engine = Engine()
    fired = []
    event = engine.schedule(10, fired.append, 1)
    engine.run()
    event.cancel()
    engine.schedule(10, fired.append, 2)
    assert engine.pending == 1
    engine.run()
    assert fired == [1, 2]


def test_an_event_cancelling_itself_counts_no_dead_entry():
    engine = Engine()
    events = []
    events.append(engine.schedule(5, lambda: events[0].cancel()))
    engine.schedule(10, lambda: None)
    engine.run(until=7)
    assert engine.pending == 1
    assert engine.peek_time() == 10


def test_gc_state_restored_after_run():
    import gc

    engine = Engine()
    thresholds = gc.get_threshold()
    enabled = gc.isenabled()
    engine.schedule(10, lambda: None)
    engine.run()
    assert gc.get_threshold() == thresholds
    assert gc.isenabled() == enabled


# -- the compiled engine is a drop-in: the same contract, test by test -------

ENGINE_CONTRACT = sorted(name for name in dir() if name.startswith("test_"))


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
@pytest.mark.parametrize("name", ENGINE_CONTRACT)
def test_compiled_engine_honours_the_engine_contract(name, monkeypatch):
    """Every test above, with ``Engine`` bound to ``CEngine`` (``step``,
    ``pending_total``, heap compaction and ``schedule_anon`` are reached by
    nothing else on the compiled backend: networks are driven by ``run``)."""
    monkeypatch.setitem(globals(), "Engine", backend._compiled_module().CEngine)
    globals()[name]()


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
def test_compiled_events_are_built_by_the_engine_only():
    ck = backend._compiled_module()
    with pytest.raises(TypeError):
        ck.CEvent(0, 0, print, ())
    event = ck.CEngine().schedule(5, print)
    assert (event.time, event.seq, event.cancelled, event.in_wheel) == (5, 0, False, False)
    assert repr(event) == "<CEvent t=5 #0 print>"
    with pytest.raises(AttributeError):
        event.time = 6  # heap entries carry their own key: nothing re-times an event


@pytest.mark.parametrize("name, error", [("bogus", ValueError), ("compiled", RuntimeError)])
def test_an_unusable_backend_variable_fails_as_set_backend_does(name, error, monkeypatch):
    """``TLT_BACKEND`` naming an unknown or unbuilt backend is refused,
    with ``set_backend``'s error, instead of running on ``pure``."""
    monkeypatch.setattr(backend, "compiled_available", lambda: False)
    monkeypatch.setenv("TLT_BACKEND", name)
    with pytest.raises(error) as refused:
        backend.current_backend()
    with pytest.raises(error) as forced:
        backend.set_backend(name)
    assert str(refused.value) == str(forced.value)
    monkeypatch.setenv("TLT_BACKEND", "")
    assert backend.current_backend() == "pure"


# -- the two engines, differentially ------------------------------------------

_KINDS = ("schedule", "schedule_at", "schedule_anon", "schedule_timer", "schedule_timer_at")
# Delays inside one wheel slot, across level-0 slots, and into levels 1 and 2.
_DELAYS = st.one_of(st.integers(0, 40), st.integers(0, 1 << 20), st.integers(0, 1 << 26))
# What a callback does when it fires: nothing, schedule one more event, or
# cancel a handle (live, fired or cancelled already: any index).
_ACTIONS = st.one_of(
    st.none(),
    st.tuples(st.just("add"), st.sampled_from(_KINDS), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
)
_STEPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_KINDS), _DELAYS, _ACTIONS),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("storm"), st.integers(Engine.COMPACT_MIN_DEAD, 3 * Engine.COMPACT_MIN_DEAD),
              st.sampled_from(("schedule", "schedule_timer")), _DELAYS),
    st.tuples(st.just("run"), st.one_of(st.none(), st.integers(0, 1 << 27))),
)


def _play(engine, program):
    """Run ``program`` on ``engine``; the observable state after each step."""
    log, handles = [], []

    def add(kind, delay, action):
        when = engine.now + delay if kind.endswith("_at") else delay
        handles.append(getattr(engine, kind)(when, fire, len(handles), action))

    def act(action):
        if action is None:
            return
        if action[0] == "add":
            add(*action[1:], None)
            return
        cancellable = [h for h in handles if h is not None]
        if cancellable:
            cancellable[action[1] % len(cancellable)].cancel()

    def fire(tag, action):
        log.append((tag, engine.now))
        act(action)

    states = []
    for step in program:
        if step[0] == "add":
            add(*step[1:])
        elif step[0] == "storm":
            _, count, kind, delay = step
            for _ in range(count):
                add(kind, delay, None)
            for handle in handles[-count:]:
                handle.cancel()
        elif step[0] == "run":
            engine.run(until=None if step[1] is None else engine.now + step[1])
        else:
            act(step)
        states.append((len(log), engine.now, engine.pending, engine.pending_total,
                       engine.peek_time()))
    return log, states


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
@settings(max_examples=150, deadline=None)
@given(st.lists(_STEPS, max_size=40))
def test_the_compiled_engine_runs_any_program_as_the_pure_one_does(program):
    """Firing order, clock, live and queued counts and the next event time
    agree after every step: scheduling of each kind, cancels of live,
    fired and cancelled events, callbacks that schedule or cancel, cancel
    storms that compact the heap, and ``run`` to a horizon or to the end."""
    expected = _play(Engine(), program)
    assert _play(backend._compiled_module().CEngine(), program) == expected


@pytest.mark.skipif(not backend.compiled_available(), reason="compiled backend not built")
@pytest.mark.parametrize("entry", [
    ("x",), (1, 2), (1, 2, print), (1, 2, print, [3]), (-1, 2, print, ()),
    (1.0, 2, print, ()), [1, 2, print, ()], (1, 2, print, (), None),
])
def test_a_malformed_heap_entry_is_refused(entry):
    engine = backend._compiled_module().CEngine()
    push, target = engine._pusher
    with pytest.raises(TypeError):
        push(target, entry)
    assert engine.pending_total == 0


@pytest.mark.parametrize("make", [
    Engine,
    pytest.param(lambda: backend._compiled_module().CEngine(), marks=pytest.mark.skipif(
        not backend.compiled_available(), reason="compiled backend not built")),
])
def test_pushed_entries_run_in_key_order(make):
    engine, fired = make(), []
    push, target = engine._pusher
    engine.schedule(20, fired.append, "scheduled")  # seq 0
    push(target, (20, 7, fired.append, ("late",)))
    engine._push((20, 3, fired.append, ("early",)))
    engine._push((10, 9, engine.schedule(0, fired.append, "event")))  # seq 1, twice
    assert engine.pending_total == 5
    engine.run()
    assert fired == ["event", "event", "scheduled", "early", "late"]
