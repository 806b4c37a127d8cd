import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_layout
from skyhaul import channel
from skyhaul.channel import (BRACKET_DOUBLINGS, LIGHT_SPEED, ChannelParams,
                             CoverageError, build_link_table, coverage_radius,
                             p_los, path_loss_db, row_fsum)
from skyhaul.config import ScenarioConfig, table1_urban
from skyhaul.deployment import Layout
from skyhaul.harness import prepare_scenario

URBAN = ChannelParams(alpha=9.61, beta=0.16, eta_los_db=1.0, eta_nlos_db=20.0,
                      carrier_hz=2e9)
CASE_STUDY = table1_urban()
# the dense-field benchmark preset: ~240 cells x ~35 hubs on a 2 km side
DENSE = dataclasses.replace(CASE_STUDY, cell_intensity_per_m2=1e-4,
                            cell_min_sep_m=40.0, hub_altitude_m=100.0,
                            pl_max_db=80.0, area_side_m=2000.0, seed=1)


def radio_cfg(**radio):
    """The case-study scenario with some radio constants replaced."""
    return dataclasses.replace(CASE_STUDY, **radio)


def linear_sinr(table):
    return 10.0 ** (table.sinr_db / 10.0)


def rx_w(cfg, pl_db):
    return cfg.tx_power_w * 10.0 ** (-pl_db / 10.0)


class TestParamValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha=0.0, beta=0.16, eta_los_db=1, eta_nlos_db=20,
                          carrier_hz=2e9)

    def test_excess_losses_ordered(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha=9.61, beta=0.16, eta_los_db=21, eta_nlos_db=20,
                          carrier_hz=2e9)

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioConfig(noise_w=0.0)


class TestPLos:
    def test_overhead_value(self):
        assert p_los(URBAN, math.pi / 2) == pytest.approx(0.999975, abs=1e-6)

    def test_forty_five_degree_value(self):
        assert p_los(URBAN, math.pi / 4) == pytest.approx(0.9677, abs=1e-4)

    def test_strictly_increasing_on_grid(self):
        vals = p_los(URBAN, np.linspace(1e-6, math.pi / 2, 100))
        assert (np.diff(vals) > 0).all()
        assert ((0.0 < vals) & (vals < 1.0)).all()

    def test_domain_error_outside_range(self):
        with pytest.raises(ValueError):
            p_los(URBAN, 0.0)
        with pytest.raises(ValueError):
            p_los(URBAN, math.pi / 2 + 0.01)
        with pytest.raises(ValueError):
            p_los(URBAN, np.array([math.pi / 4, 0.0]))


class TestPathLoss:
    def test_overhead_case_study_value(self):
        # FSPL 88.01 dB at 300 m plus essentially the full 1 dB LoS excess
        assert path_loss_db(URBAN, 0.0, 300.0) == pytest.approx(89.0, abs=0.1)

    def test_zero_excess_reduces_to_fspl(self):
        params = ChannelParams(alpha=9.61, beta=0.16, eta_los_db=0.0,
                               eta_nlos_db=0.0, carrier_hz=2e9)
        d = math.hypot(300.0, 400.0)
        expected = 20.0 * math.log10(4 * math.pi * 2e9 * d / LIGHT_SPEED)
        assert path_loss_db(params, 400.0, 300.0) == pytest.approx(expected, abs=1e-9)

    def test_doubling_distance_adds_six_db_to_fspl(self):
        params = ChannelParams(alpha=9.61, beta=0.16, eta_los_db=0.0,
                               eta_nlos_db=0.0, carrier_hz=2e9)
        near, far = path_loss_db(params, 0.0, np.array([150.0, 300.0]))
        assert far - near == pytest.approx(20.0 * math.log10(2.0), abs=0.01)

    def test_colocated_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(URBAN, 0.0, 0.0)
        with pytest.raises(ValueError):
            path_loss_db(URBAN, np.array([10.0, 0.0]), 0.0)


@st.composite
def channel_params(draw):
    """Any ChannelParams the constructor accepts, over a wide but finite box."""
    eta_los = draw(st.floats(0.0, 50.0))
    return ChannelParams(
        alpha=draw(st.floats(0.1, 30.0)),
        beta=draw(st.floats(0.01, 2.0)),
        eta_los_db=eta_los,
        eta_nlos_db=eta_los + draw(st.floats(0.0, 50.0)),
        carrier_hz=draw(st.floats(1e8, 1e11)),
        pl_exponent=draw(st.floats(2.0, 4.0)),
    )


class TestPathLossMonotone:
    """What makes the coverage-radius root unique: free-space loss grows with
    the slant distance, and the excess loss cannot fall with ground distance
    because P(LoS) falls with the elevation angle and eta_los <= eta_nlos."""

    @given(channel_params(), st.floats(1.0, 2000.0), st.floats(0.0, 1e4),
           st.lists(st.floats(1.0, 1e4), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_strictly_increasing_in_ground_distance(self, params, h, start, steps):
        s = start + np.cumsum([0.0, *steps])
        assert (np.diff(path_loss_db(params, s, h)) > 0).all()


class TestReceivedPower:
    """Received power tx * 10^(-pl/10), read back from single-hub tables as
    SINR times noise."""

    def test_zero_loss(self):
        # rx / 10^(-pl/10) recovers the transmit power: no loss, no change
        cfg = CASE_STUDY
        table = build_link_table(cfg, make_layout([[0, 0], [700, 200]],
                                                  [[100, 50, 300]]))
        recovered = linear_sinr(table) * cfg.noise_w / 10.0 ** (-table.pl_db / 10.0)
        np.testing.assert_allclose(recovered, cfg.tx_power_w, rtol=1e-12)

    def test_one_decade(self):
        # ten times the transmit power is one decade (10 dB) more SNR
        layout = make_layout([[0, 0], [700, 200]], [[100, 50, 300]])
        low = build_link_table(radio_cfg(tx_power_w=0.5), layout)
        high = build_link_table(radio_cfg(tx_power_w=5.0), layout)
        np.testing.assert_allclose(high.sinr_db - low.sinr_db, 10.0, atol=1e-9)

    def test_case_study_level(self):
        table = build_link_table(CASE_STUDY, make_layout([[0, 0]], [[0, 0, 300]]))
        rx = linear_sinr(table)[0, 0] * CASE_STUDY.noise_w
        assert rx == pytest.approx(6.29e-9, rel=0.01)


class TestSinr:
    def test_single_hub_is_snr(self):
        cfg = CASE_STUDY
        table = build_link_table(cfg, make_layout([[0, 0], [900, 0], [2500, 1800]],
                                                  [[300, 400, 300]]))
        np.testing.assert_allclose(linear_sinr(table),
                                   rx_w(cfg, table.pl_db) / cfg.noise_w, rtol=1e-12)

    def test_two_equal_hubs_no_noise_limit(self):
        # mirror-image hubs deliver the same power, so SINR -> 1 without noise
        quiet = radio_cfg(noise_w=1e-30)
        table = build_link_table(quiet, make_layout([[500, 700]],
                                                    [[0, 700, 300], [1000, 700, 300]]))
        np.testing.assert_allclose(linear_sinr(table), 1.0, rtol=1e-12)

    def test_hand_value(self):
        # noise equal to hub 1's received power: SINR_0 = rx_0 / (2 rx_1)
        layout = make_layout([[0, 0]], [[0, 0, 300], [600, 0, 300]])
        rx = rx_w(CASE_STUDY, build_link_table(CASE_STUDY, layout).pl_db[0])
        loud = radio_cfg(noise_w=float(rx[1]))
        sinr = linear_sinr(build_link_table(loud, layout))[0, 0]
        assert sinr == pytest.approx(rx[0] / (2.0 * rx[1]), rel=1e-12)

    def test_interference_only_reduces(self):
        cfg = CASE_STUDY
        table = build_link_table(cfg, make_layout(
            [[0, 0], [1500, 900]], [[0, 0, 300], [800, 0, 300], [2000, 2000, 300]]))
        snr = rx_w(cfg, table.pl_db) / cfg.noise_w
        assert (linear_sinr(table) < snr).all()


def small_layout(n_cells=3, n_hubs=2):
    return make_layout([[500.0 * i + 200.0, 700.0] for i in range(n_cells)],
                       [[800.0 * j + 400.0, 900.0, 300.0] for j in range(n_hubs)])


def oracle_path_loss_db(params, cell, hub):
    """Per-pair path loss through the math module, as computed before the
    link table was vectorised."""
    s = math.hypot(cell[0] - hub[0], cell[1] - hub[1])
    d = math.hypot(hub[2], s)
    fspl = 10.0 * math.log10((4.0 * math.pi * params.carrier_hz * d / LIGHT_SPEED)
                             ** params.pl_exponent)
    theta_deg = math.degrees(math.atan2(hub[2], s))
    p = 1.0 / (1.0 + params.alpha * math.exp(-params.beta * (theta_deg - params.alpha)))
    return fspl + p * params.eta_los_db + (1.0 - p) * params.eta_nlos_db


def oracle_sinr(cfg, pl_row, j):
    """Linear SINR with the interference summed over the other hubs only."""
    rx = [cfg.tx_power_w * 10.0 ** (-pl / 10.0) for pl in pl_row]
    interference = math.fsum(p for k, p in enumerate(rx) if k != j)
    return rx[j] / (interference + cfg.noise_w)


@pytest.fixture(scope="module")
def dense_layout():
    return prepare_scenario(DENSE).layout


class TestBuildLinkTable:
    def test_shapes_and_finiteness(self):
        cfg = table1_urban()
        table = build_link_table(cfg, small_layout(4, 3))
        for mat in (table.pl_db, table.sinr_db, table.spec_eff, table.bandwidth_hz):
            assert mat.shape == (4, 3)
            assert np.isfinite(mat).all()

    def test_spec_eff_definition(self):
        cfg = table1_urban()
        table = build_link_table(cfg, small_layout())
        lin = 10.0 ** (table.sinr_db / 10.0)
        assert np.abs(table.spec_eff - np.log2(1.0 + lin)).max() < 1e-12

    def test_bandwidth_times_eff_recovers_rate(self):
        cfg = table1_urban()
        layout = small_layout()
        table = build_link_table(cfg, layout)
        recovered = table.bandwidth_hz * table.spec_eff
        assert np.abs(recovered - layout.rates[:, None]).max() / layout.rates.max() < 1e-9

    def test_rejects_empty_layout(self):
        empty = Layout(cells=np.zeros((0, 2)), rates=np.zeros(0), hubs=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_link_table(table1_urban(), empty)

    @pytest.mark.parametrize("cfg", [CASE_STUDY, DENSE], ids=["case-study", "dense-field"])
    def test_agrees_with_per_pair_oracle(self, cfg):
        layout = prepare_scenario(cfg).layout
        table = build_link_table(cfg, layout)
        pl = np.array([[oracle_path_loss_db(cfg.channel, c, h) for h in layout.hubs]
                       for c in layout.cells])
        np.testing.assert_allclose(table.pl_db, pl, rtol=1e-13, atol=0)
        sinr = np.array([[oracle_sinr(cfg, row, j) for j in range(len(row))]
                         for row in pl.tolist()])
        np.testing.assert_allclose(linear_sinr(table), sinr, rtol=1e-9, atol=0)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_hub_permutation_permutes_columns_exactly(self, dense_layout, rnd):
        order = list(range(len(dense_layout.hubs)))
        rnd.shuffle(order)
        base = build_link_table(DENSE, dense_layout)
        permuted = build_link_table(DENSE, dataclasses.replace(
            dense_layout, hubs=dense_layout.hubs[order]))
        for name in ("pl_db", "sinr_db", "spec_eff", "bandwidth_hz"):
            assert np.array_equal(getattr(permuted, name), getattr(base, name)[:, order])


DOUBLE_MAX = np.finfo(np.float64).max


def per_row_fsum(x):
    """math.fsum of each row in turn, as the link table once summed them."""
    return np.array([math.fsum(row) for row in x.tolist()])


def sum_outcome(sums, x):
    """The bytes of the row sums, or the type and message of the error."""
    try:
        return sums(x).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def tie_rows(draw, m):
    """m >= 2 nonnegative terms whose exact sum is a double r plus or minus
    half its gap to the next double, a tie that fsum rounds to even; or
    that sum nudged by a tiny term; or the tie above r less 2**-10 gaps,
    plus up to m - 2 terms of 2**-14 gaps, which a long-double sum of terms
    near r drops, so that it lands on the other side of the tie."""
    r = draw(st.floats(2.0 ** -1000, DOUBLE_MAX / 2))
    above = math.nextafter(r, math.inf) - r
    below = r - math.nextafter(r, 0.0)
    kind = draw(st.sampled_from(["above", "below", "nudged", "drift"]))
    if kind == "above":
        terms = [r, above / 2]
    elif kind == "below":
        terms = [r / 2, (r - below) / 2]
    elif kind == "nudged":
        terms = [r, above / 2, math.ldexp(below, -70)]
    else:
        terms = [r, above / 2 - math.ldexp(above, -10)]
        terms += [math.ldexp(above, -14)] * draw(st.integers(0, m - 2))
    row = (terms + [0.0] * m)[:m]
    return draw(st.permutations(row))


def random_row(rng, kind, m, base):
    """m doubles of one kind; in some rows about a third are zeros."""
    if kind == "subnormal":
        row = rng.integers(0, 2 ** 52, m).view(np.float64)
    elif kind == "spread":  # up to 600 binades above 2**base
        row = np.ldexp(rng.uniform(1.0, 2.0, m),
                       np.minimum(base + rng.integers(0, 601, m), 1023))
    elif kind == "huge":  # near the largest double: the sum overflows
        row = rng.uniform(DOUBLE_MAX / 4, DOUBLE_MAX, m)
    else:  # uniform bit patterns: every finite binade
        row = rng.integers(0, 0x7FF0000000000000, m).view(np.float64)
    if kind == "non-finite":
        row = np.where(rng.random(m) < 0.1, rng.choice([np.inf, -np.inf, np.nan], m), row)
    return np.where(rng.random(m) < rng.choice([0.0, 0.3]), 0.0, row)


@st.composite
def fsum_matrices(draw):
    """1-8 rows of 1-200 doubles, each row of one kind: any doubles,
    subnormals, spreads of up to 600 binades, values near the largest
    double, or half-ulp ties; some with zeros mixed in. With signed, the
    rows other than the ties take random signs, and some take infs and
    NaNs."""
    m = draw(st.integers(1, 200))
    base = draw(st.integers(-1074, 1023))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = ["any", "subnormal", "spread", "huge"] + ["tie"] * (m >= 2) \
        + ["non-finite"] * signed
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "tie":
            rows.append(draw(tie_rows(m)))
        else:
            row = random_row(rng, kind, m, base)
            rows.append(row * rng.choice([-1.0, 1.0], m) if signed else row)
    return np.array(rows, dtype=np.float64)


@pytest.fixture
def fsum_calls(monkeypatch):
    """The rows math.fsum is called on, in order."""
    calls, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(row) or fsum(row))
    return calls


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRowFsum:
    """row_fsum returns per-row math.fsum's doubles, and its errors, on
    nonnegative rows as the link table's, and on signed ones."""

    @given(fsum_matrices())
    @settings(max_examples=400, deadline=None)
    def test_equals_per_row_fsum(self, x):
        assert sum_outcome(row_fsum, x) == sum_outcome(per_row_fsum, x)

    def test_tie_rows_take_fsum(self, fsum_calls):
        # 1 + 2**-53 ties between 1 and its successor and rounds to even,
        # 1; (1 + 2**-52) + 2**-53 ties and rounds up to 1 + 2**-51
        ties = [[1.0, 2.0 ** -53], [1.0 + 2.0 ** -52, 2.0 ** -53]]
        assert row_fsum(np.array(ties)).tolist() == [1.0, 1.0 + 2.0 ** -51]
        assert fsum_calls == ties

    def test_terms_dropped_by_the_long_double_sum_take_fsum(self, fsum_calls):
        # added one by one to 1.5 in np.longdouble, the 2**-68 terms round
        # away, leaving 1.5 + 2**-53 - 2**-62, below the tie; the exact sum
        # is 2**-65 above it, so fsum rounds up, and the error bound must
        # keep the row from being certified
        row = [1.5, 2.0 ** -53 - 2.0 ** -62] + [2.0 ** -68] * 72
        assert row_fsum(np.array([row])).tolist() == [1.5 + 2.0 ** -52]
        assert fsum_calls == [row]

    def test_overflow_raises_fsums_error(self):
        x = np.array([[1.0, 2.0], [DOUBLE_MAX, DOUBLE_MAX]])
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            row_fsum(x)

    def test_link_table_sinr_from_fsum_totals(self, dense_layout):
        # the SINR as built from per-row fsum totals, bit for bit
        table = build_link_table(DENSE, dense_layout)
        rx = DENSE.tx_power_w * 10.0 ** (-table.pl_db / 10.0)
        total = per_row_fsum(rx)
        sinr = rx / (total[:, None] - rx + DENSE.noise_w)
        assert np.array_equal(table.sinr_db, 10.0 * np.log10(sinr))


def grid_scan_radius(params, h, pl_max_db):
    """1-meter grid oracle: largest integer s with path loss <= the ceiling."""
    s = 0
    while path_loss_db(params, float(s + 1), h) <= pl_max_db:
        s += 1
        if s > 100_000:
            raise AssertionError("oracle ran away")
    return float(s)


def scalar_coverage_radius(params, h, pl_max_db):
    """One path_loss_db call per bracket doubling and per bisection step:
    the oracle for coverage_radius's guided walk and its one checking
    call."""

    def pl(s):
        return path_loss_db(params, s, h)

    pl0 = pl(0.0)
    if pl0 > pl_max_db:
        raise CoverageError(
            f"path loss at zero ground offset ({pl0:.2f} dB) already exceeds {pl_max_db:.2f} dB"
        )
    if pl0 == pl_max_db:
        return 0.0

    hi = max(h, 1.0)
    for _ in range(BRACKET_DOUBLINGS):
        if pl(hi) >= pl_max_db:
            break
        hi *= 2.0
    else:
        raise CoverageError(f"path loss never reaches {pl_max_db:.2f} dB (unbounded bracket)")

    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if pl(mid) < pl_max_db:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def spy_path_loss(monkeypatch) -> list:
    """Record the arguments of every path_loss_db call coverage_radius makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return path_loss_db(*args)
    monkeypatch.setattr(channel, "path_loss_db", counted)
    return calls


def outcome(radius, *args):
    """The radius, or the type and message of the CoverageError raised."""
    try:
        return radius(*args)
    except CoverageError as exc:
        return type(exc), str(exc)


class TestCoverageRadius:
    def test_monotone_loss_over_bracket(self):
        vals = path_loss_db(URBAN, np.linspace(0.0, 10_000.0, 200), 300.0)
        assert (np.diff(vals) > 0).all()

    def test_case_study_radius_against_grid_oracle(self):
        r = coverage_radius(URBAN, 300.0, 110.0)
        assert 0.0 < r < 10_000.0
        residual = path_loss_db(URBAN, r, 300.0) - 110.0
        assert abs(residual) <= 0.01
        assert abs(r - grid_scan_radius(URBAN, 300.0, 110.0)) <= 1.0

    @given(st.sampled_from([150.0, 200.0, 300.0, 450.0, 600.0]))
    @settings(deadline=None)
    def test_other_altitudes_against_grid_oracle(self, h):
        r = coverage_radius(URBAN, h, 110.0)
        assert abs(r - grid_scan_radius(URBAN, h, 110.0)) <= 1.0

    def test_ceiling_below_overhead_loss_raises(self):
        with pytest.raises(CoverageError):
            coverage_radius(URBAN, 300.0, 80.0)

    def test_ceiling_just_above_overhead_loss_is_near_zero(self):
        pl0 = path_loss_db(URBAN, 0.0, 300.0)
        assert coverage_radius(URBAN, 300.0, pl0 + 0.05) < 50.0

    @given(channel_params(), st.floats(1e-3, 1e5), st.floats(-20.0, 800.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_bisection(self, params, h, offset):
        # the ceiling sits below the loss overhead (raise), in the bracket,
        # or past its last doubling (raise), as the offset goes up
        ceiling = float(path_loss_db(params, 0.0, h)) + offset
        with np.errstate(over="ignore"):
            expected = outcome(scalar_coverage_radius, params, h, ceiling)
        assert outcome(coverage_radius, params, h, ceiling) == expected

    def test_ceiling_equal_to_overhead_loss_is_zero(self):
        pl0 = float(path_loss_db(URBAN, 0.0, 300.0))
        assert coverage_radius(URBAN, 300.0, pl0) == 0.0

    def test_huge_radius_stops_once_bounds_are_adjacent(self, monkeypatch):
        # one ulp of a 1.25e11 m radius exceeds the 1e-6 m stop, so the
        # bisection ends when its midpoint is lo or hi: the overhead loss,
        # then one call checking every verdict of the guided walk
        params = CASE_STUDY.channel
        calls = spy_path_loss(monkeypatch)
        r = coverage_radius(params, 300.0, 280.0)
        assert len(calls) <= 2
        assert r == 125132683854.75357
        assert r == scalar_coverage_radius(params, 300.0, 280.0)

    @pytest.mark.parametrize("cfg", [CASE_STUDY, DENSE], ids=["table1-urban", "dense-field"])
    def test_two_path_loss_calls(self, monkeypatch, cfg):
        # the overhead loss, then one call that finds every guided verdict
        # right
        calls = spy_path_loss(monkeypatch)
        r = coverage_radius(cfg.channel, cfg.hub_altitude_m, cfg.pl_max_db)
        assert len(calls) <= 2
        assert r == scalar_coverage_radius(cfg.channel, cfg.hub_altitude_m, cfg.pl_max_db)

    @pytest.mark.parametrize("guide", [
        lambda loss: loss + 0.5, lambda loss: loss - 0.5, lambda loss: loss * (1 + 1e-15),
        lambda loss: 0.0, lambda loss: 1e300, lambda loss: None],
        ids=["plus-half-db", "minus-half-db", "few-ulps-up", "zero", "huge", "none"])
    @given(channel_params(), st.floats(1e-3, 1e5), st.floats(-20.0, 800.0))
    @settings(max_examples=100, deadline=None)
    def test_wrong_guide_still_gives_the_scalar_bisection(self, guide, params, h, offset):
        # the guide only steers: every verdict the walk used is checked
        # against path_loss_db, and a wrong one is corrected and walked again
        ceiling = float(path_loss_db(params, 0.0, h)) + offset
        with np.errstate(over="ignore"):
            expected = outcome(scalar_coverage_radius, params, h, ceiling)
        honest = channel._guide_loss

        def wrong(*args):
            loss = honest(*args)
            return None if loss is None else guide(loss)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_guide_loss", wrong)
            assert outcome(coverage_radius, params, h, ceiling) == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tiny_altitude_is_silent_and_matches_scalar_bisection(self):
        # the free-space term underflows to 0 at s = 0, so the overhead loss
        # is -inf: below the ceiling, which is the right verdict
        params = CASE_STUDY.channel
        with np.errstate(divide="ignore"):
            expected = scalar_coverage_radius(params, 1e-200, 110.0)
        assert coverage_radius(params, 1e-200, 110.0) == expected
