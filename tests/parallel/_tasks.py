"""Worker tasks for the pool tests (module-level so workers can resolve
them by dotted name; see ``repro.parallel.pool.resolve_task``)."""

import os
import time

from repro.exceptions import DataError, StaleWorkerStateError


def echo(state, value):
    return value


def put(state, key, value):
    state[key] = value


def get(state, key):
    return state.get(key)


def put_or_die(state, key, value):
    if key is None:
        raise RuntimeError("poisoned shard")
    state[key] = value


def raise_data_error(state, message):
    raise DataError(message)


def raise_value_error(state, message):
    raise ValueError(message)


def raise_stale(state):
    raise StaleWorkerStateError("pinned state is gone")


def sleep_for(state, seconds):
    time.sleep(seconds)
    return seconds


def die(state):
    # A hard crash: no exception reply ever reaches the master, the pipe
    # just breaks — the "poisoned worker" the pool must surface cleanly.
    os._exit(3)
