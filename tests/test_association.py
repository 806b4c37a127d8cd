import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _builders import make_instance
from skyhaul.association import (_certainly_fits, _links, bandwidth_probes,
                                 check_feasible, empty_association, exact_grid,
                                 greedy_step1, greedy_step2, greedy_step3,
                                 grid_limit, objective, solve_greedy)
from skyhaul.exact import solve_exact
from skyhaul.harness import solve_verified
from skyhaul.instances import random_instance

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestProblemInstance:
    @pytest.mark.parametrize("rates", [
        [1.5], [0.0], [-30e6], [2.0**52, 2.0**52],
    ], ids=["fractional", "zero", "negative", "total-2**53"])
    def test_rejects_rates_outside_whole_bps(self, rates):
        n = len(rates)
        with pytest.raises(ValueError):
            make_instance([[10.0]] * n, [[1e6]] * n, rates)

    @pytest.mark.parametrize("bandwidths", [
        [1e6, -1e6], [1e6, -math.inf],
        # the solvers' pruning assumes nonnegative demands: here greedy and
        # enumeration once kept all three cells over the 2.5 Hz cap, and the
        # search kept one where cells 0 and 2 fit in 0 Hz
        [1e20, 3.0, -1e20],
    ], ids=["negative", "-inf", "cancelling"])
    def test_rejects_negative_bandwidths(self, bandwidths):
        n = len(bandwidths)
        with pytest.raises(ValueError, match="nonnegative"):
            make_instance([[10.0]] * n, [[b] for b in bandwidths], [1.0] * n,
                          hub_bandwidth_cap_hz=2.5)

    @pytest.mark.parametrize("field, value", [
        ("backhaul_cap_bps", math.nan), ("backhaul_cap_bps", -1.0),
        ("backhaul_cap_bps", -math.inf),
        ("hub_bandwidth_caps", np.array([math.nan])),
        ("hub_bandwidth_caps", np.array([-1.0])),
        ("hub_link_caps", np.array([-1])), ("hub_link_caps", np.array([1.5])),
        ("sinr_min_db", math.nan),
    ], ids=["backhaul-nan", "backhaul-negative", "backhaul--inf", "hub-nan",
            "hub-negative", "links-negative", "links-fractional", "sinr-nan"])
    def test_rejects_caps_outside_their_domain(self, field, value):
        inst = make_instance([[10.0]], [[1e6]], [30e6])
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(inst, **{field: value})

    @pytest.mark.parametrize("cap", [0.0, math.inf])
    @pytest.mark.parametrize("sinr_min_db", [-math.inf, math.inf])
    def test_accepts_zero_and_infinite_caps(self, cap, sinr_min_db):
        inst = make_instance([[10.0]], [[1e6]], [30e6], backhaul_cap_bps=cap,
                             hub_bandwidth_cap_hz=cap, hub_link_cap=0,
                             sinr_min_db=sinr_min_db)
        assert check_feasible(inst, empty_association(1, 1)).ok

    def test_accepts_total_just_below_2_53(self):
        inst = make_instance([[10.0]] * 2, [[1e6]] * 2, [2.0**52, 2.0**52 - 1])
        assert objective(inst, np.ones((2, 1), dtype=np.int8)) == 2.0**53 - 1


class TestObjective:
    def test_all_zero_matrix(self):
        inst = make_instance([[10.0, 10.0]], [[1e6, 1e6]], [150e6])
        assert objective(inst, empty_association(1, 2)) == 0.0

    def test_single_association(self):
        inst = make_instance([[10.0, 10.0]], [[1e6, 1e6]], [150e6])
        a = empty_association(1, 2)
        a[0, 1] = 1
        assert objective(inst, a) == 150e6

    def test_dimension_mismatch_rejected(self):
        inst = make_instance([[10.0]], [[1e6]], [30e6])
        with pytest.raises(ValueError):
            objective(inst, empty_association(2, 1))


class TestCheckFeasible:
    def test_empty_is_feasible(self):
        inst = make_instance([[0.0, 0.0]] * 3, [[1e6, 1e6]] * 3,
                             [30e6, 60e6, 90e6])
        report = check_feasible(inst, empty_association(3, 2))
        assert report.ok and report.violated == []

    def test_link_cap_violation_detected(self):
        inst = make_instance([[10.0]] * 8, [[1e6]] * 8, [30e6] * 8,
                             hub_link_cap=7)
        a = np.ones((8, 1), dtype=np.int8)
        report = check_feasible(inst, a)
        assert not report.ok
        assert [c for c, _ in report.violated] == ["links"]

    def test_backhaul_violation_detected(self):
        inst = make_instance([[10.0]] * 2, [[1e6]] * 2, [90e6, 60e6],
                             backhaul_cap_bps=100e6)
        a = np.ones((2, 1), dtype=np.int8)
        assert ("backhaul" in {c for c, _ in check_feasible(inst, a).violated})

    def test_sinr_violation_on_set_entries_only(self):
        inst = make_instance([[-20.0, 10.0]], [[1e6, 1e6]], [30e6])
        ok = empty_association(1, 2)
        ok[0, 1] = 1
        assert check_feasible(inst, ok).ok
        bad = empty_association(1, 2)
        bad[0, 0] = 1
        assert {c for c, _ in check_feasible(inst, bad).violated} == {"sinr"}

    def test_sinr_violation_message_names_plain_indices(self):
        inst = make_instance([[10.0, 10.0], [10.0, -20.0]], [[1e6, 1e6]] * 2,
                             [30e6, 30e6])
        a = empty_association(2, 2)
        a[1, 1] = 1
        assert check_feasible(inst, a).violated == [
            ("sinr", "1 links below -5.0 dB, first (1, 1)")]

    def test_nan_sinr_is_not_admitted(self):
        # neither solver admits the NaN link, so the checker refuses it too
        inst = make_instance([[math.nan], [10.0]], [[1e6]] * 2, [100e6, 50e6])
        report = check_feasible(inst, np.ones((2, 1), dtype=np.int8))
        assert report.violated == [("sinr", "1 links below -5.0 dB, first (0, 0)")]
        for a, _ in (solve_greedy(inst), solve_exact(inst)):
            assert a[:, 0].tolist() == [0, 1]

    @pytest.mark.parametrize("cap", [1e6, math.inf])
    def test_nan_bandwidth_never_fits(self, cap):
        # neither solver lets a NaN bandwidth fit any cap, so neither does the checker
        inst = make_instance([[10.0]], [[math.nan]], [30e6], hub_bandwidth_cap_hz=cap)
        assert check_feasible(inst, np.ones((1, 1), dtype=np.int8)).violated == [
            ("bandwidth", f"hub 0: nan Hz > cap {cap:.6g} Hz")]
        for a, _ in (solve_greedy(inst), solve_exact(inst)):
            assert a.sum() == 0

    @pytest.mark.parametrize("cap", [math.inf, 1.7e308])
    def test_total_past_double_range(self, cap):
        # three 6e307 Hz links sum past the largest double, where fsum
        # overflows: the total fits an infinite cap and no finite one, as the
        # solvers' probes rule, so they carry all three cells or two
        inst = make_instance([[10.0]] * 3, [[6e307]] * 3, [1.0, 2.0, 3.0],
                             hub_bandwidth_cap_hz=cap, hub_link_cap=3)
        report = check_feasible(inst, np.ones((3, 1), dtype=np.int8))
        if cap == math.inf:
            assert report.ok
        else:
            assert report.violated == [("bandwidth", "hub 0: inf Hz > cap 1.7e+308 Hz")]
        carried = 3 if cap == math.inf else 2
        solved = solve_verified(inst, "both", 0, 1000)
        for method in ("greedy", "exact"):
            a, verified = solved[method]
            assert verified.feasible and a.sum() == carried

    def test_total_past_2_1023_certainly_fits(self):
        # float totals of at least 2**1023 clear a cap above them, finite
        # or not, and nothing clears a cap at or below them
        total = np.array([1.2e308, 1.2e308, 1.2e308, 9e307])
        caps = np.array([math.inf, 1.7e308, 1.2e308, 9e307])
        assert _certainly_fits(total, caps, 2).tolist() == [True, True, False, False]
        inst = make_instance([[10.0]] * 2, [[6e307]] * 2, [1.0, 2.0],
                             hub_bandwidth_cap_hz=1.7e308)
        assert check_feasible(inst, np.ones((2, 1), dtype=np.int8)).ok

    def test_double_association_detected(self):
        inst = make_instance([[10.0, 10.0]], [[1e6, 1e6]], [30e6])
        a = np.ones((1, 2), dtype=np.int8)
        assert ("single-assoc" in {c for c, _ in check_feasible(inst, a).violated})

    def test_non_binary_entries_rejected(self):
        inst = make_instance([[10.0]], [[1e6]], [30e6])
        a = np.full((1, 1), 2, dtype=np.int8)
        with pytest.raises(ValueError):
            check_feasible(inst, a)

    def test_negative_entry_rejected(self):
        inst = make_instance([[10.0, 10.0]] * 3, [[1e6, 1e6]] * 3, [30e6] * 3)
        a = np.array([[1, 0], [0, -1], [0, 1]], dtype=np.int8)
        with pytest.raises(ValueError, match="0 or 1"):
            check_feasible(inst, a)

    @pytest.mark.parametrize("entry", [0.5, math.nan], ids=["half", "nan"])
    def test_non_binary_float_entry_rejected(self, entry):
        inst = make_instance([[10.0, 10.0]] * 2, [[1e6, 1e6]] * 2, [30e6] * 2)
        a = np.array([[1.0, 0.0], [0.0, entry]])
        with pytest.raises(ValueError, match="0 or 1"):
            check_feasible(inst, a)

    def test_bool_and_negative_zero_entries_accepted(self):
        inst = make_instance([[10.0, 10.0]] * 2, [[1e6, 1e6]] * 2, [30e6] * 2)
        want = check_feasible(inst, np.array([[1, 0], [0, 1]], dtype=np.int8))
        assert want.ok
        assert check_feasible(inst, np.array([[True, False], [False, True]])) == want
        assert check_feasible(inst, np.array([[1.0, -0.0], [-0.0, 1.0]])) == want


class TestLinks:
    @given(st.sampled_from([np.int8, np.bool_, np.int64, np.float64]),
           st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=300), st.data())
    @settings(max_examples=200, deadline=None)
    def test_match_nonzero(self, dtype, n, m, data):
        bits = data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        a = np.array(bits, dtype=dtype).reshape(n, m)
        rows, cols, flat = _links(a)
        want_rows, want_cols = np.nonzero(a)
        assert rows.tolist() == want_rows.tolist()
        assert cols.tolist() == want_cols.tolist()
        assert flat.tolist() == np.flatnonzero(a).tolist()


# doubles from 1e-300 to 1e300, subnormals as whole multiples of the
# smallest one, and doubles of one magnitude, whose sums round at every step
_BANDWIDTHS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.integers(min_value=1, max_value=2**52 - 1).map(lambda k: k * 5e-324),
    st.floats(min_value=1.0, max_value=4.0),
)


class TestExactBandwidthVerdict:
    @given(st.lists(st.one_of(_BANDWIDTHS, st.just(math.inf), st.just(math.nan)),
                    min_size=1, max_size=12),
           st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_fsum_of_accepted_plus_probe(self, values, data):
        # links on two hubs, each capped at a partial fsum of its finite
        # links or an ulp either side, at inf, or at its first link
        cols = data.draw(st.lists(st.integers(0, 1), min_size=len(values),
                                  max_size=len(values)))
        caps = []
        for j in (0, 1):
            finite = [v for v, c in zip(values, cols) if c == j and math.isfinite(v)]
            tie = math.fsum(finite[:data.draw(st.integers(0, len(finite)))])
            caps.append(data.draw(st.sampled_from([
                tie, math.nextafter(tie, -math.inf), math.nextafter(tie, math.inf),
                math.inf, finite[0] if finite else 0.0])))
        units, rooms = bandwidth_probes(np.asarray(values), np.asarray(cols), np.asarray(caps))
        accepted = [[], []]
        for v, j, u in zip(values, cols, units):
            fits = u <= rooms[j]
            assert fits == (math.fsum(accepted[j] + [v]) <= caps[j])
            if fits:
                accepted[j].append(v)
                rooms[j] -= u

    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.just(sys.float_info.max)),
           st.integers(min_value=0, max_value=1126).map(lambda k: 1 << k))
    @settings(max_examples=500, deadline=None)
    def test_limit_is_the_largest_fitting_total(self, cap, scale):
        # scales up to 2**1126, the finest grid exact_grid makes (5e-324)
        t = grid_limit(cap, scale)
        assert t / scale <= cap
        try:
            assert (t + 1) / scale > cap
        except OverflowError:  # past every double, so past the cap
            pass

    def test_total_past_double_range_does_not_fit(self):
        # fsum raises OverflowError on this sum, read as an inf total: the
        # second link fits the infinite cap of hub 1, not the largest double
        big = sys.float_info.max
        with pytest.raises(OverflowError):
            math.fsum([big, big])
        units, rooms = bandwidth_probes(np.array([big] * 4), np.array([0, 0, 1, 1]),
                                        np.array([big, math.inf]))
        assert units[0] <= rooms[0] and not units[1] <= rooms[0] - units[0]
        assert units[2] <= rooms[1] and units[3] <= rooms[1] - units[2]

    def test_units_that_never_fit_are_nan(self):
        # a NaN link fits no cap and an inf link no finite one; under an
        # infinite cap every other unit is 0, and the room is inf
        bw = np.array([math.nan, math.inf, 1.0] * 2)
        units, rooms = bandwidth_probes(bw, np.array([0] * 3 + [1] * 3), np.array([2.0, math.inf]))
        assert [math.isnan(u) for u in units] == [True, True, False, True, False, False]
        assert 2 * units[2] <= rooms[0] < 3 * units[2]  # two 1.0 Hz links fit 2.0 Hz
        assert units[4:] == [0, 0]
        assert rooms[1] == math.inf

    @given(st.lists(_BANDWIDTHS, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_grid_is_exact(self, values):
        units, scale = exact_grid(np.asarray(values))
        assert all(u / scale == v for u, v in zip(units, values))


class TestStep1:
    # requests[i] is cell i's requested hub + 1, or 0 for no request
    def test_unservable_cell_left_out(self):
        inst = make_instance([[-6.0, -7.0]], [[1e6, 1e6]], [30e6])
        assert greedy_step1(inst).tolist() == [0]

    def test_argmax_hub_selected(self):
        inst = make_instance([[3.0, 7.0, 5.0]], [[1e6] * 3], [30e6])
        assert greedy_step1(inst).tolist() == [2]

    def test_tie_goes_to_lowest_index(self):
        inst = make_instance([[4.0, 4.0]], [[1e6, 1e6]], [30e6])
        assert greedy_step1(inst).tolist() == [1]

    def test_threshold_is_inclusive(self):
        inst = make_instance([[-5.0]], [[1e6]], [30e6])
        assert greedy_step1(inst).tolist() == [1]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_rows_have_at_most_one_mark_at_row_max(self, seed):
        inst = random_instance(seed, n_cells=12, n_hubs=4)
        requests = greedy_step1(inst)
        assert requests.shape == (inst.n_cells,)  # one request at most per cell
        for i in np.flatnonzero(requests):
            j = int(requests[i]) - 1
            assert inst.link_table.sinr_db[i, j] == inst.link_table.sinr_db[i].max()
            assert inst.link_table.sinr_db[i, j] >= inst.sinr_min_db


class TestStep2:
    def test_bandwidth_rejection_keeps_scanning(self):
        # two 150 Mbps candidates at 20 and 25 MHz plus a 30 Mbps at 10 MHz,
        # cap 40 MHz and two links: the 25 MHz twin is dropped, the small
        # request still fits
        sinr = [[10.0], [10.0], [10.0]]
        bw = [[20e6], [25e6], [10e6]]
        inst = make_instance(sinr, bw, [150e6, 150e6, 30e6],
                             hub_bandwidth_cap_hz=40e6, hub_link_cap=2)
        a, _ = greedy_step2(inst, np.ones(3, dtype=np.uint8))
        assert a[:, 0].tolist() == [1, 0, 1]

    def test_single_candidate_within_caps_accepted(self):
        inst = make_instance([[10.0]], [[1e6]], [30e6],
                             hub_bandwidth_cap_hz=2e6, hub_link_cap=1)
        assert greedy_step2(inst, np.ones(1, dtype=np.uint8))[0].sum() == 1

    def test_zero_link_cap_rejects_everything(self):
        inst = make_instance([[10.0]] * 3, [[1e6]] * 3, [30e6] * 3,
                             hub_link_cap=0)
        assert greedy_step2(inst, np.ones(3, dtype=np.uint8))[0].sum() == 0

    def test_rate_tie_broken_by_bandwidth_then_index(self):
        sinr = [[10.0], [10.0], [10.0]]
        bw = [[30e6], [20e6], [20e6]]
        inst = make_instance(sinr, bw, [90e6, 90e6, 90e6],
                             hub_bandwidth_cap_hz=45e6, hub_link_cap=3)
        a, _ = greedy_step2(inst, np.ones(3, dtype=np.uint8))
        # cell 1 first (20 MHz beats 30, index beats cell 2), then cell 2
        # fits within 45; cell 0 is rejected for bandwidth
        assert a[:, 0].tolist() == [0, 1, 1]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_caps_respected_and_candidates_only(self, seed):
        inst = random_instance(seed, n_cells=15, n_hubs=3, tight=True)
        requests = greedy_step1(inst)
        a, _ = greedy_step2(inst, requests)
        rows, cols = np.nonzero(a)
        assert (requests[rows] == cols + 1).all()  # requested links only
        for j in range(inst.n_hubs):
            assert a[:, j].sum() <= inst.hub_link_caps[j]
            used = math.fsum(float(inst.link_table.bandwidth_hz[i, j])
                             for i in np.flatnonzero(a[:, j]))
            assert used <= float(inst.hub_bandwidth_caps[j])


class TestStep3:
    def test_within_cap_untouched(self):
        inst = make_instance([[10.0]] * 2, [[1e6]] * 2, [30e6, 60e6],
                             backhaul_cap_bps=100e6)
        a = np.ones((2, 1), dtype=np.int8)
        trimmed, (_, cols) = greedy_step3(inst, a, np.nonzero(a))
        assert (trimmed == a).all() and np.unique(cols).size == 1

    def test_min_link_hub_loses_smallest_landing_cell(self):
        # hub 0 carries one 30 Mbps cell; hub 1 carries 60 + 90; cap 150
        sinr = [[10.0, -30.0], [-30.0, 10.0], [-30.0, 10.0]]
        bw = [[1e6, 1e6]] * 3
        inst = make_instance(sinr, bw, [30e6, 60e6, 90e6],
                             backhaul_cap_bps=150e6)
        a = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.int8)
        trimmed, (_, cols) = greedy_step3(inst, a, np.nonzero(a))
        assert objective(inst, trimmed) == 150e6
        assert trimmed[0].sum() == 0  # the 30 Mbps cell on the light hub went
        assert np.unique(cols).size == 1

    def test_zero_cap_empties_everything(self):
        inst = make_instance([[10.0]] * 3, [[1e6]] * 3, [30e6, 60e6, 90e6],
                             backhaul_cap_bps=0.0)
        a = np.ones((3, 1), dtype=np.int8)
        trimmed, (_, cols) = greedy_step3(inst, a, np.nonzero(a))
        assert trimmed.sum() == 0 and cols.size == 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_total_rate_lands_at_or_below_cap(self, seed):
        inst = random_instance(seed, n_cells=12, n_hubs=3, tight=True)
        packed, links = greedy_step2(inst, greedy_step1(inst))
        trimmed, _ = greedy_step3(inst, packed, links)
        assert objective(inst, trimmed) <= inst.backhaul_cap_bps
        # never un-removes or adds
        assert ((trimmed == 1) <= (packed == 1)).all()


class TestSolveGreedy:
    def test_empty_instance(self):
        inst = make_instance(np.zeros((0, 0)), np.zeros((0, 0)), [])
        a, report = solve_greedy(inst)
        assert a.shape == (0, 0)
        assert report.sum_rate_bps == 0.0
        assert check_feasible(inst, a).ok

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=200, deadline=None)
    def test_output_always_feasible(self, seed):
        tight = seed % 2 == 0
        inst = random_instance(seed, n_cells=1 + seed % 25, n_hubs=1 + seed % 5,
                               tight=tight)
        a, report = solve_greedy(inst)
        assert check_feasible(inst, a).ok
        assert report.sum_rate_bps == objective(inst, a)
        assert report.n_associated == int((a.sum(axis=1) > 0).sum())

    def test_deterministic(self):
        inst = random_instance(77, n_cells=20, n_hubs=4, tight=True)
        a1, r1 = solve_greedy(inst)
        a2, r2 = solve_greedy(inst)
        assert (a1 == a2).all()
        assert r1.sum_rate_bps == r2.sum_rate_bps
        assert r1.op_count == r2.op_count
