"""Property tests of the closed-form T(t) over the ModelParams domain."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_ent import AdiabaticRegimeWarning, KappaConvention, ModelParams, transition_prob

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# ModelParams takes any finite ratio_r (outside (0, 1) with an
# AdiabaticRegimeWarning), beta and kappa0, and any alpha_sq >= 0.  The draws
# span far beyond the physical range, down to subnormal couplings; the caps
# keep kappa0 * ratio_r finite and the Poisson table near the largest preset's.
model_fields = st.fixed_dictionaries(
    {
        "ratio_r": st.floats(-1e3, 1e3),
        "beta": st.floats(-6.0, 6.0),
        "kappa0": st.floats(-1e3, 1e3),
        "alpha_sq": st.floats(0.0, 300.0),
    }
)
time_grids = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40, unique=True).map(sorted)


def t_of(times, **fields):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticRegimeWarning)
        params = ModelParams(**fields)
    return transition_prob(params, times).channels["T"]


@PROPERTY_SETTINGS
@given(model_fields, time_grids)
def test_transition_prob_is_zero_at_zero_and_bounded(fields, times):
    values = t_of([0.0] + [t for t in times if t > 0.0], **fields)
    assert values[0] == 0.0
    assert np.all(values >= 0.0)
    assert np.all(values <= 0.25)


@PROPERTY_SETTINGS
@given(model_fields, time_grids)
def test_transition_prob_is_even_in_beta(fields, times):
    flipped = {**fields, "beta": -fields["beta"]}
    assert np.array_equal(t_of(times, **fields), t_of(times, **flipped))


@PROPERTY_SETTINGS
@given(model_fields, time_grids, st.sampled_from([0.0, -0.0]))
def test_kappa_convention_is_inert_at_zero_kappa(fields, times, kappa0):
    fields = {**fields, "kappa0": kappa0}
    values = [
        t_of(times, **fields, kappa_convention=convention) for convention in KappaConvention
    ]
    assert np.array_equal(values[0], values[1])
