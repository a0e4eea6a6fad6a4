# repro-lint-fixture-module: fixproj.user
"""Consumers: the leak is invisible without the factory's summary."""

from contextlib import ExitStack

from fixproj.factory import make_segment, make_segment_indirect


def bad_consume(payload):
    shm = make_segment(4096)  # leaked: nothing ever closes it
    shm.buf[:len(payload)] = payload


def bad_consume_indirect(payload):
    shm = make_segment_indirect(4096)  # leaked through two hops
    shm.buf[:len(payload)] = payload


def good_with_stack(payload):
    with ExitStack() as stack:
        shm = stack.enter_context(make_segment(4096))
        shm.buf[:len(payload)] = payload


def good_finally(payload):
    shm = make_segment(4096)
    try:
        shm.buf[:len(payload)] = payload
    finally:
        shm.close()


def good_factory_onward():
    return make_segment(4096)
