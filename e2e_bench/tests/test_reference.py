"""The machine-speed reference and the rescaling of end-to-end times."""

from reference import NOMINAL_S, SpeedReference


def test_sample_for_takes_at_least_one_sample():
    ref = SpeedReference()
    ref.sample_for(0.0)
    assert len(ref.samples) == 1 and ref.samples[0] > 0


def test_scale_is_nominal_over_mean_sample():
    ref = SpeedReference()
    ref.samples = [0.1, 0.4, 0.25]
    assert ref.mean_s == 0.25
    assert ref.scale == NOMINAL_S / 0.25
