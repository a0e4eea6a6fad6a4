# repro-lint-fixture-module: repro.experiments.fixture_par002
"""PAR002 positive fixture: pool resources acquired with no release."""

from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory


def bare_segment(slots):
    shm = shared_memory.SharedMemory(create=True, size=slots)
    return shm.name  # the handle itself is dropped, segment leaks


def unmanaged_segment(size, payload):
    shm = SharedMemory(create=True, size=size)
    shm.buf[:len(payload)] = payload
    shm.close()  # not reached if the copy raises: no finally, no with


def unmanaged_attach(name):
    shm = SharedMemory(name=name)
    return bytes(shm.buf[:8])


def segment_without_owner(size):
    shm = SharedMemory(create=True, size=size)
    shm.buf[0] = 1


def attach_expression_statement(name):
    SharedMemory(name=name).buf.tobytes()
