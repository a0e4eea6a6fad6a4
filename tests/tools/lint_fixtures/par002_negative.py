# repro-lint-fixture-module: repro.experiments.fixture_par002_ok
"""PAR002 negative fixture: every acquisition has a tied release path."""

import atexit
import contextlib
import weakref
from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory


def context_manager(size, payload):
    with SharedMemory(create=True, size=size) as shm:
        shm.buf[:len(payload)] = payload


def with_statement_segment(slots):
    with shared_memory.SharedMemory(create=True, size=slots) as shm:
        return bytes(shm.buf[:8])


def exit_stack(name, spare_name):
    with contextlib.ExitStack() as stack:
        shm = stack.enter_context(SharedMemory(name=name))
        spare = stack.enter_context(SharedMemory(name=spare_name))
        spare.buf[0] = 1
        return bytes(shm.buf[:8])


def try_finally(size):
    shm = SharedMemory(create=True, size=size)
    try:
        shm.buf[0] = 1
    finally:
        shm.close()


def registered_finalizers(size, slots):
    shm = SharedMemory(create=True, size=size)
    atexit.register(shm.close)
    spare = SharedMemory(create=True, size=slots)
    weakref.finalize(spare, spare.close)
    return shm, spare


class Owner:
    def __init__(self, slots):
        # Ownership moves to the object; its close() manages the segment.
        self._shm = shared_memory.SharedMemory(create=True, size=slots)

    def close(self):
        self._shm.close()
        self._shm.unlink()


def factory(slots):
    shm = shared_memory.SharedMemory(create=True, size=slots)
    return shm  # the caller's scope owns (and is checked for) release
