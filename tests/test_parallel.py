import os
import sys
import threading
import time

import pytest

from lcsmooth import parallel


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``parallel.map_ordered`` reads."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize("n", [1, 2, 4])
def test_keeps_input_order(cpus, n):
    cpus(n)

    def late_for_early_items(x):
        time.sleep(0.002 * (20 - x))  # early items finish last
        return x * x

    assert parallel.map_ordered(late_for_early_items, range(20)) == [x * x for x in range(20)]


def test_empty_and_single_item(cpus):
    cpus(2)
    assert parallel.map_ordered(abs, []) == []
    assert parallel.map_ordered(abs, [-3]) == [3]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_raises_first_failing_item_in_input_order(cpus, n):
    cpus(n)

    def fail(x):
        if x == 3:
            time.sleep(0.05)  # fails after item 5 has failed
            raise Boom("item 3")
        if x == 5:
            raise Boom("item 5")
        return x

    with pytest.raises(Boom, match="item 3"):
        parallel.map_ordered(fail, range(8))


def test_takes_no_item_after_a_failure(cpus):
    cpus(2)
    called = []

    def fail_on_one(x):
        called.append(x)
        if x == 1:
            raise Boom(x)
        time.sleep(0.001)

    with pytest.raises(Boom):
        parallel.map_ordered(fail_on_one, range(200))
    # each thread finishes the item it holds, and at most one it took as
    # the other raised
    assert 1 in called and len(called) <= 4


def test_one_cpu_runs_on_the_calling_thread(cpus):
    cpus(1)
    before = threading.enumerate()
    seen = parallel.map_ordered(lambda x: (threading.get_ident(), threading.enumerate()), range(5))
    assert {ident for ident, _ in seen} == {threading.get_ident()}
    assert all(threads == before for _, threads in seen)


def test_without_affinity_reads_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (1, None):  # os.cpu_count() is None where it cannot tell
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        idents = parallel.map_ordered(lambda x: threading.get_ident(), range(5))
        assert set(idents) == {threading.get_ident()}
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    idents = parallel.map_ordered(lambda x: time.sleep(0.01) or threading.get_ident(), range(6))
    assert len(set(idents)) == 2


@pytest.mark.parametrize("n", [2, 3])
def test_calling_thread_works_next_to_one_helper_per_extra_cpu(cpus, n):
    cpus(n)
    idents = parallel.map_ordered(lambda x: time.sleep(0.01) or threading.get_ident(), range(12))
    assert threading.get_ident() in idents and len(set(idents)) == n


@pytest.mark.parametrize("fails", [False, True])
def test_no_thread_outlives_the_call(cpus, fails):
    cpus(4)
    before = threading.enumerate()

    def work(x):
        time.sleep(0.002)
        if fails and x == 6:
            raise Boom(x)
        return x

    try:
        parallel.map_ordered(work, range(10))
    except Boom:
        assert fails
    assert threading.enumerate() == before


def test_each_item_runs_once_under_fast_switching(cpus):
    # more threads than cores, switching every microsecond: a lost or
    # repeated item would show in the calls or the results
    cpus(8)
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = parallel.map_ordered(square, range(5000))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(calls) == list(range(5000))
    assert result == [x * x for x in range(5000)]
