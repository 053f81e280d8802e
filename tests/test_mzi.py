import math

import pytest

from photonlab.mzi import (
    MziConfig,
    choice_timing_invariance,
    detector_probabilities,
    run_mzi,
)


def test_closed_interferometer_fringe():
    assert detector_probabilities(0.0, True) == (1.0, 0.0)
    assert detector_probabilities(math.pi, True) == (0.0, 1.0)
    p0, p1 = detector_probabilities(math.pi / 3, True)
    assert abs(p0 - 0.75) < 1e-12
    for phase in [k * 0.1 for k in range(-40, 40)]:
        p0, p1 = detector_probabilities(phase, True)
        assert p0 + p1 == 1.0
        assert abs(p0 - math.cos(phase / 2) ** 2) < 1e-12


def test_open_interferometer_is_flat():
    for phase in (0.0, 0.4, math.pi / 2, 2.7):
        p0, p1 = detector_probabilities(phase, False)
        assert abs(p0 - 0.5) < 1e-12
        assert p0 + p1 == 1.0


def test_detector_probabilities_validation():
    with pytest.raises(ValueError):
        detector_probabilities(float("nan"), True)
    with pytest.raises(ValueError):
        detector_probabilities(float("inf"), False)


def test_config_validation():
    MziConfig(phase=0.3, choice_policy="delayed-random", p_present=0.7)
    with pytest.raises(ValueError):
        MziConfig(phase=float("nan"))
    with pytest.raises(ValueError):
        MziConfig(phase=0.0, choice_policy="random")
    with pytest.raises(ValueError):
        MziConfig(phase=0.0, p_present=1.5)
    with pytest.raises(ValueError):
        MziConfig(phase=0.0, p_present=-0.1)


def test_analytic_mode_reports_expected_counts():
    stats = run_mzi(MziConfig(phase=math.pi / 3), 100_000, mode="analytic")
    assert stats.count_d0 == 75_000
    assert stats.count_d1 == 25_000
    assert stats.by_choice is None
    full = run_mzi(MziConfig(phase=0.0), 5000, mode="analytic")
    assert full.count_d0 == 5000 and full.count_d1 == 0
    with pytest.raises(ValueError):
        run_mzi(MziConfig(phase=0.0, choice_policy="delayed-random"), 100, mode="analytic")
    with pytest.raises(ValueError):
        run_mzi(MziConfig(phase=0.0), 0)
    with pytest.raises(ValueError):
        run_mzi(MziConfig(phase=0.0), 100, mode="exact")


def test_mc_fringe_and_flat_statistics():
    n = 50_000
    for phase in (0.4, math.pi / 2, 2.0):
        closed = run_mzi(MziConfig(phase=phase), n, seed=21)
        p = math.cos(phase / 2) ** 2
        assert abs(closed.fraction_d0() - p) < 4 * math.sqrt(p * (1 - p) / n)
        assert closed.count_d0 + closed.count_d1 == n
        assert closed.by_choice is None
        open_ = run_mzi(MziConfig(phase=phase, second_bs=False), n, seed=22)
        assert abs(open_.fraction_d0() - 0.5) < 4 * math.sqrt(0.25 / n)


def test_mc_runs_are_deterministic():
    cfg = MziConfig(phase=1.1, choice_policy="delayed-random")
    a = run_mzi(cfg, 20_000, seed=23)
    b = run_mzi(cfg, 20_000, seed=23)
    assert (a.n, a.count_d0, a.by_choice) == (b.n, b.count_d0, b.by_choice)
    c = run_mzi(cfg, 20_000, seed=24)
    assert a.count_d0 != c.count_d0


def test_delayed_choice_bookkeeping_adds_up():
    cfg = MziConfig(phase=0.9, choice_policy="delayed-random", p_present=0.3)
    stats = run_mzi(cfg, 40_000, seed=25)
    present = stats.by_choice["present"]
    absent = stats.by_choice["absent"]
    assert present.n + absent.n == stats.n
    assert present.count_d0 + absent.count_d0 == stats.count_d0
    assert present.count_d0 + present.count_d1 == present.n
    assert absent.count_d0 + absent.count_d1 == absent.n
    assert abs(present.n / stats.n - 0.3) < 4 * math.sqrt(0.3 * 0.7 / stats.n)


def test_delayed_random_counts_follow_their_law_at_the_count_cap():
    # over all n photons, each count is binomial with the probability that a
    # photon lands in it: present, present and D0, absent and D0
    n, phase, p = 2**32, 0.9, 0.3
    stats = run_mzi(MziConfig(phase=phase, choice_policy="delayed-random", p_present=p), n,
                    seed=29)
    present, absent = stats.by_choice["present"], stats.by_choice["absent"]
    assert present.n + absent.n == n
    assert present.count_d0 + absent.count_d0 == stats.count_d0
    for count, q in ((present.n, p),
                     (present.count_d0, p * math.cos(phase / 2) ** 2),
                     (absent.count_d0, (1 - p) * 0.5)):
        assert abs(count - n * q) < 5 * math.sqrt(n * q * (1 - q))


def test_degenerate_policies_reproduce_fixed_runs_exactly():
    n, seed = 30_000, 26
    always = run_mzi(
        MziConfig(phase=0.8, choice_policy="delayed-random", p_present=1.0), n, seed=seed
    )
    closed = run_mzi(MziConfig(phase=0.8), n, seed=seed)
    assert always.count_d0 == closed.count_d0
    assert always.by_choice["absent"].n == 0
    never = run_mzi(
        MziConfig(phase=0.8, choice_policy="delayed-random", p_present=0.0), n, seed=seed
    )
    open_ = run_mzi(MziConfig(phase=0.8, second_bs=False), n, seed=seed)
    assert never.count_d0 == open_.count_d0
    assert never.by_choice["present"].n == 0


def test_choice_timing_leaves_no_signature():
    delayed = MziConfig(phase=math.pi / 3, choice_policy="delayed-random")
    fixed = MziConfig(phase=math.pi / 3)
    report = choice_timing_invariance(delayed, fixed, 200_000, seed=27)
    assert report.within_4_sigma
    assert abs(report.z_value) <= 4
    assert report.choice == "present"
    p = 0.75
    assert abs(report.conditional_fraction_d0 - p) < 4 * math.sqrt(
        p * (1 - p) / report.n_conditional
    )
    # conditioning on the other branch compares against the open fringe
    absent = choice_timing_invariance(
        delayed, MziConfig(phase=math.pi / 3, second_bs=False), 100_000, seed=28
    )
    assert absent.choice == "absent"
    assert absent.within_4_sigma


def test_timing_invariance_validation():
    delayed = MziConfig(phase=0.5, choice_policy="delayed-random")
    fixed = MziConfig(phase=0.5)
    with pytest.raises(ValueError):
        choice_timing_invariance(fixed, fixed, 1000)
    with pytest.raises(ValueError):
        choice_timing_invariance(delayed, delayed, 1000)
    with pytest.raises(ValueError):
        choice_timing_invariance(delayed, MziConfig(phase=0.6), 1000)
    starved = MziConfig(phase=0.5, choice_policy="delayed-random", p_present=0.0)
    with pytest.raises(ValueError):
        choice_timing_invariance(starved, fixed, 1000)


def test_a_draw_that_leaves_the_branch_empty_makes_no_comparison():
    # one photon at p_present 1/2 finds the beamsplitter absent at seed 1
    delayed = MziConfig(phase=0.5, choice_policy="delayed-random", p_present=0.5)
    report = choice_timing_invariance(delayed, MziConfig(phase=0.5), 1, seed=1)
    assert report.choice == "present" and report.n_conditional == 0
    assert report.conditional_fraction_d0 is report.z_value is report.within_4_sigma is None
    assert report.fixed_n == 1
    # a policy that always finds it present never reaches the absent branch
    always = MziConfig(phase=0.5, choice_policy="delayed-random", p_present=1.0)
    with pytest.raises(ValueError, match="never gives the 'absent' branch"):
        choice_timing_invariance(always, MziConfig(phase=0.5, second_bs=False), 1000)


def test_timing_invariance_z_is_zero_when_both_sides_are_certain():
    delayed = MziConfig(phase=0.0, choice_policy="delayed-random", p_present=1.0)
    fixed = MziConfig(phase=0.0)
    report = choice_timing_invariance(delayed, fixed, 5000, seed=29)
    assert report.z_value == 0.0
    assert report.conditional_fraction_d0 == 1.0
    assert report.fixed_fraction_d0 == 1.0
    assert report.within_4_sigma
