"""The machine-speed reference."""

import gc

import speed


def test_reference_leaves_the_collector_as_it_was():
    assert gc.isenabled()
    assert speed.measure(2000) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert speed.measure(2000) > 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_reference_work_is_fixed():
    assert speed._run(2000) == speed._run(2000) > 0


def test_scale_is_one_at_the_reference_speed_and_grows_with_it():
    assert speed.scale([speed.REFERENCE_SPEED]) == 1.0
    half = speed.scale([speed.REFERENCE_SPEED * 0.4, speed.REFERENCE_SPEED * 0.6])
    assert half == 0.5 ** speed.SENSITIVITY
    assert half < speed.scale([speed.REFERENCE_SPEED]) < speed.scale([speed.REFERENCE_SPEED * 2])
