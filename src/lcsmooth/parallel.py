"""The map that the pipeline's independent loops share across CPUs."""

from __future__ import annotations

import os
import queue
import threading


def map_ordered(fn, items):
    """``[fn(x) for x in items]``, worked by the calling thread next to one
    helper thread per extra usable CPU (none on one CPU).

    Threads take the items in input order and the results come back in input
    order.  Where calls raise, the exception of the first failing item in
    input order is raised; no item is taken after a call has raised, and no
    helper thread outlives the call.  ``fn`` runs on several threads at once,
    so it must not change state that other items read; the threads overlap
    where it runs native code that releases the interpreter lock, such as
    numpy's array operations and scipy's k-d tree.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    helpers = min(cpus, len(items)) - 1
    todo = queue.SimpleQueue()
    for i in range(len(items)):
        todo.put(i)
    results, errors, stop = [None] * len(items), {}, threading.Event()

    def work():
        while not stop.is_set():
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:  # raised on the calling thread below
                errors[i] = exc
                stop.set()

    threads = [threading.Thread(target=work) for _ in range(helpers)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        stop.set()
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results
