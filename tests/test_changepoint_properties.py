"""Property tests of the change-point rules.

Each rule's ``detect`` mask must hold exactly the detection times of the
per-path reference loop in ``_oracles``, on batches of n in [1, 40] paths of
T in [0, 12] steps whose values come from {-2, -1, 0, 0.5, 1, 2, 4}: ties at
c x, zeros and sign flips.  ``first_times`` must read the first detection of
each row, T + 1 in a row with none and 1 at T = 0, and a 1-D path is one row.
The mixture chain's update cases must follow its latent path as the case
table says, for random latent paths of T in [1, 12] steps and each ordering
of beta1 and beta2.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extreme_chains import diagnostics, norming, tailchain

from _oracles import ratio_threshold_times, sign_change_times, value_change_times

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, derandomize=True, database=None)

PATHS = arrays(float, st.tuples(st.integers(1, 40), st.integers(1, 13)),
               elements=st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0]))

RULES = [
    (tailchain.RatioThreshold(0.5), partial(ratio_threshold_times, 0.5)),
    (tailchain.RatioThreshold(0.25), partial(ratio_threshold_times, 0.25)),
    (tailchain.SignChange(), sign_change_times),
    (tailchain.ValueChange(), value_change_times),
]


@pytest.mark.parametrize("rule,oracle", RULES,
                         ids=["ratio_0.5", "ratio_0.25", "sign", "value"])
@PROPERTY_SETTINGS
@given(paths=PATHS)
def test_detect_matches_per_path_times(rule, oracle, paths):
    n, T = paths.shape[0], paths.shape[1] - 1
    mask = rule.detect(paths)
    assert mask.dtype == bool and mask.shape == (n, T)
    first = tailchain.first_times(mask)
    for row, path, f in zip(mask, paths, first):
        times = oracle(path)
        np.testing.assert_array_equal(np.flatnonzero(row) + 1, times)
        assert f == (times[0] if times.size else T + 1)
    np.testing.assert_array_equal(rule.detect(paths[0]), mask[:1])


@PROPERTY_SETTINGS
@given(n=st.integers(1, 40), T=st.integers(0, 12))
def test_first_times_without_detection(n, T):
    np.testing.assert_array_equal(
        tailchain.first_times(np.zeros((n, T), dtype=bool)), np.full(n, T + 1))


def test_law_check_on_single_state_paths():
    # T = 0: every path falls in the truncation bucket, which holds all the
    # Geometric mass too
    paths = np.ones((5, 1))
    assert diagnostics.changepoint_law_check(
        paths, tailchain.RatioThreshold(0.5), 0.5) == 0.0


MIX_G1 = norming.limit_law("gaussian_exponential", rho=0.95)
MIX_G2 = norming.limit_law("inverted_bev_logistic", gamma=0.9)
MIX_A1, MIX_A2 = 0.9025, 0.3


@pytest.mark.parametrize("b1,b2", [(0.5, 0.1), (0.1, 0.5), (0.3, 0.3)],
                         ids=["beta1_above", "beta1_below", "equal_betas"])
@PROPERTY_SETTINGS
@given(latent=arrays(bool, st.tuples(st.integers(1, 20), st.integers(1, 12))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mixture_case_table(b1, b2, latent, seed):
    n, T = latent.shape
    h = tailchain.hidden_ht_mixture(0.5, (MIX_A1, b1, MIX_G1), (MIX_A2, b2, MIX_G2),
                                    T, n, np.random.default_rng(seed), latent=latent)
    case = h.case
    assert (case[:, 0] == 0).all()
    np.testing.assert_array_equal(np.isin(case[:, 1:], [1, 3, 5]), latent[:, 1:])
    # the past is forgotten only at a change-point
    assert not (np.isin(case, [3, 4]) & ~h.is_changepoint).any()
    used = set(np.unique(case[:, 1:]).tolist())
    if b1 == b2:
        assert used <= {1, 2}
    elif b1 > b2:
        assert not used & {4, 5}
    else:
        assert not used & {3, 6}
    scaling = np.isin(case, [5, 6])
    alpha = np.where(case == 5, MIX_A1, MIX_A2)
    after = (alpha * np.column_stack([np.zeros(n), h.M[:, :-1]]))[scaling]
    np.testing.assert_array_equal(h.M[scaling], after)
