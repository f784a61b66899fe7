"""Unit tests for schedules, backward products and contraction envelopes.

Frozen values come from hand computation: Metropolis weights on tiny
graphs, window search on the two-step alternation, and fraction arithmetic
for the envelope constants.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab import network
from cdlab.analysis import mixing_residual_curves, propagate_moments
from cdlab.errors import InvalidWeights, NoConnectedWindow, ParameterError, ShapeError
from cdlab.experiment import report_header
from cdlab.network import (
    ScheduleSpec,
    WeightSchedule,
    build_schedule,
    check_geometric_decay,
    validate_assumption,
    _connected,
    _edge_set,
    _metropolis_weights,
    _PaddedRows,
    _support_edges,
)
from corpus import CORPUS, build_scenario
from oracles import PRODUCT_AGREE_ATOL, disagreement_product, forward_product, weight_at

PATH3 = ScheduleSpec(n_nodes=3, topology="static", edges=((1, 2), (2, 3)))
ALT3 = ScheduleSpec(
    n_nodes=3, topology="alternating-links", link_cycle=(((1, 2),), ((2, 3),))
)


@st.composite
def connected_static_specs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    edges = {(i, i + 1) for i in range(1, n)}
    extra = draw(st.sets(st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    ), max_size=6))
    for i, j in extra:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return ScheduleSpec(n_nodes=n, topology="static", edges=tuple(edges))


# ── graphs and metropolis weights ─────────────────────────────────────────


# one spec per topology on nodes 1..size, valid at any integer size
TOPOLOGY_SPECS = {
    "static": lambda size: {},
    "alternating-links": lambda size: {"link_cycle": ((),)},
    "random-subgraph": lambda size: {"period": 1, "seed": 0},
    "explicit": lambda size: {"matrices": (np.eye(size),)},
}


class TestEdgeSet:
    def test_normalizes_edge_order(self):
        assert _edge_set(3, [(2, 1), (3, 2)]) == frozenset({(1, 2), (2, 3)})

    def test_rejects_self_loop_and_bad_labels(self):
        with pytest.raises(ParameterError):
            _edge_set(3, [(1, 1)])
        with pytest.raises(ParameterError):
            _edge_set(3, [(0, 2)])
        with pytest.raises(ParameterError):
            _edge_set(3, [(1, 4)])

    @pytest.mark.parametrize(
        "n_nodes, fields",
        [
            (3, {"edges": [(1.5, 2.9)]}),
            (3, {"edges": [(1.0, 2)]}),
            (3, {"edges": [(True, 2)]}),
            *[(n, {"topology": t, **spec(int(n))}) for t, spec in TOPOLOGY_SPECS.items() for n in (3.0, True)],
        ],
        ids=[
            "endpoint-float",
            "endpoint-integral-float",
            "endpoint-bool",
            *[f"{t}-n_nodes-{kind}" for t in TOPOLOGY_SPECS for kind in ("float", "bool")],
        ],
    )
    def test_non_integers_rejected_not_truncated(self, n_nodes, fields):
        """Every topology checks n_nodes by the integer rule, explicit included."""
        with pytest.raises(ParameterError, match="must be an integer"):
            ScheduleSpec(n_nodes=n_nodes, **fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"edges": [5]}, "edge 5 is not a pair"),
            ({"topology": "alternating-links", "link_cycle": [[5]]}, "edge 5 is not a pair"),
            (
                {"topology": "random-subgraph", "edges": [(1, 2), (2, 3)], "period": 2, "seed": 1, "keep_prob": "0.5"},
                "keep_prob must be a number in \\[0, 1\\], got '0.5'",
            ),
        ],
        ids=["edge-not-iterable", "link_cycle-edge-not-iterable", "keep_prob-string"],
    )
    def test_malformed_values_are_parameter_errors(self, fields, message):
        """A value of the wrong kind is refused by the rule that checks it, not by a TypeError."""
        with pytest.raises(ParameterError, match=message):
            ScheduleSpec(n_nodes=3, **fields)

    def test_numpy_integers_accepted(self):
        spec = ScheduleSpec(np.int64(3), edges=np.array([[2, 1], [3, 2]]))
        assert type(spec.n_nodes) is int and spec.edges == frozenset({(1, 2), (2, 3)})

    def test_connectivity(self):
        assert _connected(1, _edge_set(1, []))
        assert _connected(3, _edge_set(3, [(1, 2), (2, 3)]))
        assert not _connected(4, _edge_set(4, [(1, 2), (3, 4)]))


class TestMetropolisWeights:
    def test_path_three_nodes_frozen(self):
        """Degrees (1,2,1): edge weight 1/(1+2) = 1/3, diagonals take the rest."""
        w = _metropolis_weights(3, _edge_set(3, [(1, 2), (2, 3)]))
        expect = np.array(
            [
                [2 / 3, 1 / 3, 0.0],
                [1 / 3, 1 / 3, 1 / 3],
                [0.0, 1 / 3, 2 / 3],
            ]
        )
        assert w == pytest.approx(expect, rel=1e-15)

    def test_single_edge_pair_averages(self):
        w = _metropolis_weights(2, _edge_set(2, [(1, 2)]))
        assert w == pytest.approx(np.full((2, 2), 0.5), rel=1e-15)

    def test_isolated_node_keeps_own_value(self):
        w = _metropolis_weights(3, _edge_set(3, [(1, 2)]))
        assert w[2, 2] == 1.0
        assert w[2, 0] == w[2, 1] == 0.0

    @given(connected_static_specs())
    @settings(max_examples=40, deadline=None)
    def test_always_symmetric_stochastic_with_positive_diagonal(self, spec):
        w = _metropolis_weights(spec.n_nodes, spec.edges)
        assert np.abs(w - w.T).max() < 1e-14
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert w.min() >= 0.0
        assert np.diag(w).min() > 0.0


# ── schedule construction ─────────────────────────────────────────────────


class TestBuildSchedule:
    def test_static_path(self):
        s = build_schedule(PATH3)
        assert s.period == 1
        assert s.window == 1
        assert s.min_weight == pytest.approx(1 / 3, rel=1e-15)

    def test_alternation_needs_two_step_window(self):
        """Each step alone leaves a node isolated; the union connects."""
        s = build_schedule(ALT3)
        assert s.period == 2
        assert s.window == 2
        assert s.min_weight == pytest.approx(0.5, rel=1e-15)
        step1 = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        step2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        assert s.matrices == pytest.approx(np.array([step1, step2]), rel=1e-15)

    def test_edges_from_matrix_support(self):
        s = build_schedule(ALT3)
        assert _support_edges(weight_at(s, 1)) == frozenset({(1, 2)})
        assert _support_edges(weight_at(s, 2)) == frozenset({(2, 3)})

    def test_support_edges_match_pairwise_scan(self):
        """On every corpus schedule and a random sparse symmetric matrix."""
        rng = np.random.default_rng(7)
        a = rng.random((40, 40)) * (rng.random((40, 40)) < 0.2)
        mats = [a + a.T] + [w for name in CORPUS for w in build_scenario(name)[1].matrices]
        for w in mats:
            n = w.shape[0]
            scan = frozenset(
                (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if w[i, j] > 0.0
            )
            assert _support_edges(w) == scan

    def test_operators_are_padded_only_on_large_schedules_sparse_in_every_row(self, two_matching_ring):
        """The corpus and a 32-node ring at density 1/16 stay dense (too few
        nodes), and so does a 64-node star, whose hub row holds all 64
        entries although 190 of 4096 are nonzero; a 64-node ring, 2 nonzeros
        per row, gets padded factors that reproduce each matrix bit for bit."""
        star = build_schedule(ScheduleSpec(n_nodes=64, topology="static", edges=tuple((1, j) for j in range(2, 65))))
        assert np.count_nonzero(star.matrices) <= network.SPARSE_DENSITY * star.matrices[0].size
        small = [build_scenario(name)[1] for name in CORPUS]
        for schedule in small + [build_schedule(two_matching_ring(32)), star]:
            ops = schedule.operators()
            assert all(type(w) is np.ndarray for w in ops), schedule.n_nodes
            assert np.array_equal(np.array(ops), schedule.matrices)
        ring = build_schedule(two_matching_ring(64))
        v = np.random.default_rng(5).standard_normal(64)
        for w, op in zip(ring.matrices, ring.operators()):
            assert type(op) is _PaddedRows
            assert np.array_equal(op @ np.eye(64), w)
            # two nonzero terms per row: their sum is exact in any order
            assert np.array_equal(op @ v, (w * v).sum(axis=1))

    def test_padded_factor_on_irregular_sparse_schedule(self, irregular64):
        """A 64-node ring with chords, edges kept at random: rows hold 1 to 4
        nonzeros, so short rows are padded, and slot 0 is the diagonal.
        Products match dense W @ x within 1e-15 relative on nonnegative
        operands, and within 1e-15 of |W| @ |x| on signed ones; a NaN in row j
        of the operand reaches exactly the rows whose factor row has a nonzero
        in column j."""
        schedule = irregular64
        rng = np.random.default_rng(11)
        for w, op in zip(schedule.matrices, schedule.operators()):
            counts = np.count_nonzero(w, axis=1)
            assert type(op) is _PaddedRows and counts.min() < counts.max() == len(op.cols)
            assert np.array_equal(op.cols[0], np.arange(64)) and np.array_equal(op.weights[0], np.diag(w))
            for x in (rng.random((64, 64)), rng.random(64)):
                np.testing.assert_allclose(op @ x, w @ x, rtol=1e-15, atol=0.0)
            for x in (rng.standard_normal((64, 64)), rng.standard_normal(64)):
                assert np.all(np.abs(op @ x - w @ x) <= 1e-15 * (np.abs(w) @ np.abs(x)))
            for j in range(64):
                x = np.ones((64, 64))
                x[j] = np.nan
                assert np.array_equal(np.isnan(op @ x).any(axis=1), w[:, j] != 0.0)
                assert np.array_equal(np.isnan(op @ x[:, 0]), w[:, j] != 0.0)

    def test_padded_sandwich_matches_the_dense_update(self, irregular64):
        """One fused update p <- scale W p W' + weight S on each factor of the
        irregular schedule (1 to 4 nonzeros a row) matches the dense formula
        within 1e-15 of scale |W| |p| |W|' + weight |S| (seen: 4.4e-16), with S
        the fixed plane every factor of the schedule shares; a NaN at (i, j)
        and (j, i) of p reaches exactly the entries (a, b) with W[a, i] and
        W[b, j], or W[a, j] and W[b, i], nonzero."""
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 64, 64))
        p0, fixed = a @ a.T, b @ b.T
        ops = irregular64.operators()
        np.copyto(ops[0].gather[0], fixed)
        assert all(op.gather is ops[0].gather for op in ops)
        for w, op in zip(irregular64.matrices, ops):
            for scale, weight in ((0.81, 0.04), (1.0, 0.0), (0.25, 3.0)):
                p = p0.copy()
                op.sandwich(p, scale, weight)
                scale_of = scale * (np.abs(w) @ np.abs(p0) @ np.abs(w).T) + weight * np.abs(fixed)
                assert np.all(np.abs(p - (scale * (w @ p0 @ w.T) + weight * fixed)) <= 1e-15 * scale_of)
            support = (w != 0.0).astype(float)
            for i, j in [(0, 0), (5, 40), (17, 18), (63, 31), *rng.integers(0, 64, (6, 2)).tolist()]:
                hit = np.zeros((64, 64))
                hit[i, j] = hit[j, i] = 1.0
                p = np.where(hit > 0.0, np.nan, p0)
                op.sandwich(p, 0.5, 0.5)
                assert np.array_equal(np.isnan(p), support @ hit @ support.T > 0.0)

    def test_disconnected_static_rejected(self):
        with pytest.raises(NoConnectedWindow):
            build_schedule(
                ScheduleSpec(n_nodes=4, topology="static", edges=((1, 2), (3, 4)))
            )

    def test_single_node_trivial_schedule(self):
        s = build_schedule(ScheduleSpec(n_nodes=1, topology="static", edges=()))
        assert s.window == 1
        assert weight_at(s, 1) == pytest.approx(np.ones((1, 1)))
        assert s.min_weight == 1.0

    def test_explicit_matrices_accepted(self):
        half = np.full((2, 2), 0.5)
        s = build_schedule(
            ScheduleSpec(n_nodes=2, topology="explicit", matrices=(half,))
        )
        assert s.period == 1
        assert s.min_weight == 0.5

    def test_explicit_rejects_bad_row_sums(self):
        bad = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(InvalidWeights):
            build_schedule(ScheduleSpec(n_nodes=2, topology="explicit", matrices=(bad,)))

    def test_explicit_rejects_asymmetry(self):
        bad = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(InvalidWeights):
            build_schedule(ScheduleSpec(n_nodes=2, topology="explicit", matrices=(bad,)))

    def test_explicit_rejects_zero_diagonal(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidWeights):
            build_schedule(ScheduleSpec(n_nodes=2, topology="explicit", matrices=(swap,)))

    def test_explicit_rejects_weight_above_one(self):
        """Row sum 1 + 1e-13 is within tolerance, but the floor would exceed 1."""
        with pytest.raises(InvalidWeights, match="min-weight-range"):
            build_schedule(
                ScheduleSpec(n_nodes=1, topology="explicit", matrices=([[1.0 + 1e-13]],))
            )

    def test_first_weight_issue_in_step_order_is_raised(self):
        """Step 1's zero diagonal comes before step 2's asymmetry, and step 2's
        asymmetry before its own floor failure."""
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        skew = np.array([[0.0, 0.6], [0.4, 0.6]])
        with pytest.raises(InvalidWeights) as first:
            build_schedule(ScheduleSpec(n_nodes=2, topology="explicit", matrices=(swap, skew)))
        with pytest.raises(InvalidWeights) as second:
            build_schedule(ScheduleSpec(n_nodes=2, topology="explicit", matrices=(np.eye(2), skew)))
        assert str(first.value) == "weight-floor: {'k': 1, 'issue': 'diagonal-below-floor', 'value': 0.0}"
        assert str(second.value).startswith("symmetric-stochastic: {'k': 2, 'issue': 'asymmetric'")

    def test_random_subgraph_is_deterministic(self):
        spec = ScheduleSpec(
            n_nodes=5,
            topology="random-subgraph",
            edges=((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)),
            period=4,
            seed=20240817,
            keep_prob=0.7,
        )
        a = build_schedule(spec)
        b = build_schedule(spec)
        assert np.array_equal(a.matrices, b.matrices)
        report = validate_assumption(a)
        assert report.passed

    def test_random_subgraph_requires_seed_and_period(self):
        with pytest.raises(ParameterError):
            build_schedule(
                ScheduleSpec(n_nodes=3, topology="random-subgraph", edges=((1, 2), (2, 3)))
            )

    @pytest.mark.parametrize(
        "fields, unread",
        [
            (dict(edges=((1, 2),), matrices=(np.eye(2),)), "matrices"),
            (dict(topology="explicit", edges=((1, 2),), link_cycle=(((1, 2),),), matrices=(np.eye(2),)), "edges, link_cycle"),
            (dict(edges=((1, 2),), period=7, seed=3, keep_prob=0.1), "period, seed, keep_prob"),
            (dict(topology="explicit", edges=np.array([[1, 2]]), matrices=(np.eye(2),)), "edges"),
        ],
        ids=["static-matrices", "explicit-edges-link_cycle", "static-period-seed-keep_prob", "explicit-edges-array"],
    )
    def test_fields_the_topology_does_not_read_rejected(self, fields, unread):
        """A field outside TOPOLOGY_FIELDS[topology] is refused unless it holds its default."""
        with pytest.raises(ParameterError, match=f"does not read {unread}$"):
            ScheduleSpec(n_nodes=2, **fields)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ParameterError):
            build_schedule(ScheduleSpec(n_nodes=2, topology="ring-of-fire"))

    def test_matrices_are_read_only(self):
        s = build_schedule(ALT3)
        with pytest.raises(ValueError):
            s.matrices[0, 0, 0] = 2.0


# the min_weight and window build_schedule stored before both were read from
# the matrices, as float.hex: the corpus and the 256-node two-matching ring
STORED_FLOOR_AND_WINDOW = {
    "correlated2": ("0x1.0000000000000p-1", 1),
    "identity2": ("0x1.0000000000000p-1", 1),
    "n1": ("0x1.0000000000000p+0", 1),
    "n8": ("0x1.0000000000000p-2", 1),
    "rand5": ("0x1.0000000000000p-2", 2),
    "ref3": ("0x1.0000000000000p-1", 2),
    "ring256": ("0x1.0000000000000p-1", 2),
}


class TestMeasuredSchedule:
    """A WeightSchedule is its matrices: ``min_weight`` and ``window`` are read from them."""

    def test_matrices_are_the_only_field(self):
        assert [f.name for f in dataclasses.fields(WeightSchedule)] == ["matrices"]

    @pytest.mark.parametrize("name", [*CORPUS, "ring256"])
    def test_measured_values_equal_the_stored_ones(self, name, two_matching_ring):
        built = build_schedule(two_matching_ring(256)) if name == "ring256" else build_scenario(name)[1]
        s = WeightSchedule(matrices=built.matrices)
        assert (s.min_weight.hex(), s.window) == STORED_FLOOR_AND_WINDOW[name]

    def test_hand_built_disconnected_schedule(self):
        """.window is None where build_schedule raises on the same matrices;
        validate_assumption reports the failure and does not raise."""
        split = _metropolis_weights(4, frozenset({(1, 2), (3, 4)}))
        with pytest.raises(NoConnectedWindow) as built:
            build_schedule(ScheduleSpec(n_nodes=4, topology="explicit", matrices=(split, split)))
        assert str(built.value) == "union support over a full period is disconnected (period 2)"
        s = WeightSchedule(matrices=np.array([split, split]))
        assert s.window is None
        report = validate_assumption(s)
        assert [(item.name, item.passed) for item in report.items] == [
            ("symmetric-stochastic", True),
            ("weight-floor", True),
            ("window-connectivity", False),
        ]
        assert report.items[2].failures == ({"window": 2, "issue": "disconnected-union"},)
        assert report.passed is False

    @pytest.mark.parametrize(
        "shape",
        [(1, 0, 0), (0, 2, 2), (2, 3), (1, 2, 3), (2, 2, 2, 2)],
        ids=["no-nodes", "no-steps", "one-matrix", "not-square", "four-axes"],
    )
    def test_malformed_matrices_refused_at_construction(self, shape):
        """Only a (P, N, N) array with P, N >= 1 is a schedule: another shape raises
        ShapeError here, not a numpy error or a window failure later."""
        with pytest.raises(ShapeError, match=rf"must be \(period, n, n\).*got shape {re.escape(str(shape))}"):
            WeightSchedule(matrices=np.zeros(shape))

    def test_window_is_measured_once(self, monkeypatch):
        s = build_schedule(ALT3)
        monkeypatch.setattr(network, "_connected", None)
        assert (s.window, s.min_weight) == (2, 0.5)


class TestValidateAssumption:
    def test_valid_schedules_pass_all_items(self):
        for spec in (PATH3, ALT3):
            report = validate_assumption(build_schedule(spec))
            assert report.passed
            assert [i.passed for i in report.items] == [True, True, True]

    def test_row_sum_failure_reports_offender(self):
        bad = np.array([[0.5, 0.4], [0.4, 0.5]])
        s = WeightSchedule(matrices=np.array([bad]))
        report = validate_assumption(s)
        item = report.items[0]
        assert not item.passed
        assert any(f["k"] == 1 and f["issue"] == "row-sum" for f in item.failures)

    def test_non_finite_entries_flagged(self):
        nan = np.array([[[0.5, np.nan], [np.nan, 0.5]]])
        s = WeightSchedule(matrices=nan)
        item = validate_assumption(s).items[0]
        assert not item.passed
        assert item.failures == ({"k": 1, "issue": "non-finite", "value": 2},)

    def test_report_serializes(self):
        d = validate_assumption(build_schedule(ALT3)).as_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} == {
            "symmetric-stochastic",
            "weight-floor",
            "window-connectivity",
        }


# ── backward products ─────────────────────────────────────────────────────


class TestForwardProduct:
    def test_direct_multiplication_oracle(self):
        """Phi(3,1) = W(2) @ W(1), multiplied literally here."""
        s = build_schedule(ALT3)
        expect = weight_at(s, 2) @ weight_at(s, 1)
        assert forward_product(s, 3, 1) == pytest.approx(expect, rel=1e-15)

    def test_single_factor(self):
        s = build_schedule(ALT3)
        assert forward_product(s, 2, 1) == pytest.approx(weight_at(s, 1))

    def test_bad_indices_raise(self):
        s = build_schedule(ALT3)
        with pytest.raises(IndexError):
            forward_product(s, 2, 2)
        with pytest.raises(IndexError):
            forward_product(s, 1, 2)
        with pytest.raises(IndexError):
            forward_product(s, 3, 0)

    @given(connected_static_specs(), st.integers(min_value=2, max_value=9))
    @settings(max_examples=30, deadline=None)
    def test_products_stay_doubly_stochastic(self, spec, k):
        s = build_schedule(spec)
        phi = forward_product(s, k, 1)
        assert np.abs(phi.sum(axis=1) - 1.0).max() < 1e-12
        assert np.abs(phi.sum(axis=0) - 1.0).max() < 1e-12
        assert phi.min() >= -1e-12


class TestDisagreementProduct:
    def test_matches_centered_forward_product(self):
        s = build_schedule(ALT3)
        jmat = np.full((3, 3), 1 / 3)
        for k, j in [(2, 1), (3, 1), (7, 2), (12, 5)]:
            tilde = disagreement_product(s, k, j)
            assert tilde == pytest.approx(forward_product(s, k, j) - jmat, abs=1e-12)

    def test_row_and_column_sums_vanish(self):
        s = build_schedule(ALT3)
        tilde = disagreement_product(s, 9, 3)
        assert np.abs(tilde.sum(axis=0)).max() < 1e-12
        assert np.abs(tilde.sum(axis=1)).max() < 1e-12

    def test_bad_indices_raise(self):
        s = build_schedule(ALT3)
        with pytest.raises(IndexError):
            disagreement_product(s, 4, 4)


# ── contraction envelope ──────────────────────────────────────────────────


HALF2 = np.full((2, 2), 0.5)
# schedules that fail the paper's assumptions: (corpus scenario whose model fits,
# matrices from that scenario's, the failures of each failed check)
UNPROVEN = {
    "ref3-scaled": ("ref3", lambda m: m * 0.9, {"symmetric-stochastic": [
        {"k": 1, "issue": "row-sum", "value": 0.09999999999999998},
        {"k": 2, "issue": "row-sum", "value": 0.09999999999999998},
    ]}),
    "asymmetric": ("ref3", lambda m: np.array([[[0.6, 0.4, 0.0], [0.2, 0.6, 0.2], [0.0, 0.4, 0.6]]]), {
        "symmetric-stochastic": [{"k": 1, "issue": "asymmetric", "value": 0.2}],
    }),
    "floor-1.5": ("identity2", lambda m: np.full((1, 2, 2), 1.5), {
        "symmetric-stochastic": [{"k": 1, "issue": "row-sum", "value": 2.0}],
        "weight-floor": [{"issue": "min-weight-range", "value": 1.5}],
    }),
    "identity": ("ref3", lambda m: np.array([np.eye(3)] * 2), {
        "window-connectivity": [{"window": 2, "issue": "disconnected-union"}],
    }),
    "zero": ("identity2", lambda m: np.zeros((1, 2, 2)), {
        "symmetric-stochastic": [{"k": 1, "issue": "row-sum", "value": 1.0}],
        "weight-floor": [{"k": 1, "issue": "diagonal-below-floor", "value": 0.0}, {"issue": "min-weight-range", "value": 0.0}],
        "window-connectivity": [{"window": 1, "issue": "disconnected-union"}],
    }),
}


class TestEnvelope:
    def test_frozen_fraction_values(self):
        """n=2, floor 1/2, window 1: base = 31/32 by hand."""
        s = WeightSchedule(matrices=HALF2[None])
        assert (s.n_nodes, s.min_weight, s.window) == (2, 0.5, 1)
        assert s.envelope.ratio == pytest.approx(31 / 32, rel=1e-15)
        assert s.envelope.amplitude == pytest.approx(1024 / 961, rel=1e-14)

    def test_window_slows_the_ratio(self):
        """Averaging every other step, with the identity between, doubles the window
        at the same size and floor: the ratio is the square root of window 1's."""
        fast = WeightSchedule(matrices=HALF2[None])
        slow = WeightSchedule(matrices=np.array([HALF2, np.eye(2)]))
        assert (slow.n_nodes, slow.min_weight, slow.window) == (2, 0.5, 2)
        assert slow.envelope.ratio == pytest.approx(np.sqrt(fast.envelope.ratio), rel=1e-14)
        assert slow.envelope.amplitude == fast.envelope.amplitude
        assert fast.envelope.ratio < slow.envelope.ratio < 1.0

    @pytest.mark.parametrize("case", UNPROVEN)
    def test_no_envelope_without_the_assumptions(self, case):
        """The paper proves the envelope only for symmetric doubly stochastic
        weights with a floor in (0, 1] and a connected window.  A schedule that
        fails its assumption check, on its weights or its window, has none: the
        header's amplitude and ratio are null, the decay check fails with no
        contraction and the residual has no bounds, where none raises, and the
        check's report is what it was."""
        name, matrices_of, failures = UNPROVEN[case]
        model, built, _ = build_scenario(name)
        s = WeightSchedule(matrices=matrices_of(built.matrices))
        assert s.envelope is None
        header = report_header(model, s)
        assert (header["contraction"]["amplitude"], header["contraction"]["ratio"]) == (None, None)
        decay = check_geometric_decay(s)
        assert decay.passed is False and decay.note.startswith("no contraction")
        trajectory = propagate_moments(model, s, range(1, 9))
        residual = mixing_residual_curves(model, s, trajectory, range(2, 9))
        assert residual.c1 is None and residual.c2 is None and residual.supremum() is None
        names = ["symmetric-stochastic", "weight-floor", "window-connectivity"]
        assert header["assumption_check"] == {
            "passed": False,
            "checks": [{"name": n, "passed": n not in failures, "failures": failures.get(n, [])} for n in names],
        }


class TestCheckGeometricDecay:
    def test_alternation_respects_envelope(self):
        s = build_schedule(ALT3)
        report = check_geometric_decay(s)
        assert report.passed and report.note is None
        assert report.worst_ratio < 1.0
        # actual mixing is faster than the proven envelope, in the norm of one period and asymptotically
        envelope_rate = -np.log(s.envelope.ratio)
        assert report.envelope_rate == pytest.approx(envelope_rate, rel=1e-15)
        assert min(row["proven_rate"] for row in report.phases) > envelope_rate
        assert report.asymptotic_rate > envelope_rate

    def test_perfect_averaging_vanishes(self):
        """Single-edge pair: W = J exactly, products are identically zero."""
        s = build_schedule(ScheduleSpec(n_nodes=2, topology="static", edges=((1, 2),)))
        report = check_geometric_decay(s)
        assert report.passed
        assert report.worst_ratio == 0.0
        assert report.phases == ({"phase": 1, "norm": 0.0, "proven_rate": np.inf, "tail_gap": 2},)
        assert report.asymptotic_rate == np.inf

    def test_pass_line_is_the_envelope(self, monkeypatch):
        """ref3's largest entry-to-envelope ratio is 0.6528, at gap 1; with the
        amplitude scaled so that it reads 1.5, an entry between one and two
        envelopes, the check fails.  The tail bound 0.5 ** (gap // 2) then
        first lies under the lowered envelope over a full period from gap 4,
        not 3: gap 3's 0.5 is above 0.435 times the old envelope."""
        real = WeightSchedule.envelope.func

        def scaled(schedule):
            bound = real(schedule)
            return dataclasses.replace(bound, amplitude=bound.amplitude * 0.6528 / 1.5)

        _, schedule, _ = build_scenario("ref3")
        report = check_geometric_decay(schedule)
        assert report.worst_ratio == pytest.approx(0.6528, rel=1e-4)
        assert [row["tail_gap"] for row in report.phases] == [3, 3]
        monkeypatch.setattr(WeightSchedule, "envelope", property(scaled))
        report = check_geometric_decay(schedule)
        assert report.passed is False
        assert report.worst_ratio == pytest.approx(1.5, rel=1e-4)
        assert [row["tail_gap"] for row in report.phases] == [4, 4]

    def test_a_tail_that_cannot_close_fails(self, monkeypatch):
        """With an envelope of ratio 0.6, ref3's one-period norm 0.5 exceeds
        0.6 ** 2: the tail bound cannot be carried from period to period, so
        later gaps are unproven and the check fails although every measured
        entry lies far under the envelope's amplitude of 1e6."""
        monkeypatch.setattr(WeightSchedule, "envelope", property(lambda s: network.ContractionBound(amplitude=1e6, ratio=0.6)))
        report = check_geometric_decay(build_scenario("ref3")[1])
        assert report.worst_ratio < 1e-5
        assert [row["tail_gap"] for row in report.phases] == [3, 3]
        assert report.passed is False
        assert report.note == "one period's norm does not prove the envelope's ratio from phases [1, 2]"

    @pytest.mark.parametrize("matrices", [np.eye(2)[None], np.array([_metropolis_weights(4, frozenset({(1, 2), (3, 4)}))] * 2)], ids=["identity", "split"])
    def test_disconnected_schedule_has_no_contraction(self, matrices):
        """Identity mixing, and two pairs that never meet: no window connects,
        so there is no envelope and no rate, and the report says so and fails;
        build_schedule refuses the same matrices."""
        with pytest.raises(NoConnectedWindow):
            build_schedule(ScheduleSpec(n_nodes=len(matrices[0]), topology="explicit", matrices=tuple(matrices)))
        report = check_geometric_decay(WeightSchedule(matrices=matrices))
        assert report.passed is False
        assert report.note.startswith("no contraction")
        assert (report.phases, report.asymptotic_rate, report.envelope_rate, report.worst_witness) == ((), None, None, {})

    @pytest.mark.parametrize("name", ["ring64", "ref3", "rand5", "n8"])
    def test_matches_dense_factor_loop(self, name, two_matching_ring):
        """The report equals a dense (W - J) product loop, on the padded ring and
        on the corpus schedules whose products do not vanish.

        The loop's per-(j, gap) maxima to gap 200 match ``disagreement_product``
        to PRODUCT_AGREE_ATOL at sampled points.  The gaps before each phase's
        ``tail_gap`` are measured: the verdict and witness must be the loop's
        over them.  Each phase's norm is the loop's one-period product's
        within 1e-12 relative, and every later gap to 200 lies under its tail
        bound, which lies under the envelope; the asymptotic rate is the
        loop's spectral radius's within 1e-12 relative.  On the corpus the
        maxima fall to 1e-33 to 1e-60 by gap 200, and the tail bound with them.
        """
        s = build_schedule(two_matching_ring(64)) if name == "ring64" else build_scenario(name)[1]
        n, period, max_gap = s.n_nodes, s.period, 200
        report = check_geometric_decay(s)
        jmat = np.full((n, n), 1.0 / n)
        values = np.empty((period, max_gap))
        for j in range(1, period + 1):
            prod = np.eye(n)
            for gap in range(1, max_gap + 1):
                prod = (weight_at(s, j + gap - 1) - jmat) @ prod
                values[j - 1, gap - 1] = np.abs(prod).max()
                if gap == period:
                    row = report.phases[j - 1]
                    assert row["norm"] == pytest.approx(np.linalg.norm(prod, 2), rel=1e-12)
                    if j == 1:
                        rho = np.abs(np.linalg.eigvals(prod)).max()
                        assert report.asymptotic_rate == pytest.approx(-np.log(rho) / period, rel=1e-12)
        for j, gap in [(1, 1), (period, 1), (1, 37), (period, 100), (1, 200)]:
            oracle = float(np.abs(disagreement_product(s, j + gap, j)).max())
            assert abs(values[j - 1, gap - 1] - oracle) <= PRODUCT_AGREE_ATOL
        bound = s.envelope
        gaps = np.arange(1, max_gap + 1)
        envelope = bound.amplitude * bound.ratio**gaps
        norms = np.array([[row["norm"]] for row in report.phases])
        tails = np.array([[row["tail_gap"]] for row in report.phases])
        assert np.all(tails <= 2 * period + 1)
        tail_bound = norms ** (gaps // period)
        assert np.all((gaps < tails) | (values <= tail_bound * (1.0 + 1e-12)) & (tail_bound <= envelope))
        ratios = np.where(gaps < tails, values / envelope, 0.0)
        assert report.passed == bool(np.all(ratios <= 1.0 + 1e-9))
        j, g = np.unravel_index(np.argmax(ratios), ratios.shape)
        assert report.worst_ratio == ratios[j, g]
        witness = report.worst_witness
        assert (witness["j"], witness["k"], witness["gap"]) == (j + 1, j + g + 2, g + 1)

    def test_rounding_in_the_averaging_direction_is_removed(self):
        """The 3-node path's matrix repeated 150 times as one period: every
        phase's period product is (W - J)^150, whose 2-norm (2/3)^150 = 3.7e-27
        lies far under the 1e-17 at which rounding along the averaging
        direction (1/3 is inexact) would stall the products if they were not
        projected at every step; each phase's norm reads it within 1e-12
        relative."""
        w = build_schedule(PATH3).matrices[0]
        sigma = np.linalg.norm(w - 1.0 / 3, 2)
        assert sigma == pytest.approx(2.0 / 3.0, rel=1e-15)
        report = check_geometric_decay(WeightSchedule(matrices=np.array([w] * 150)))
        assert report.passed and len(report.phases) == 150
        for row in report.phases:
            assert row["norm"] == pytest.approx(sigma**150, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name, fitted", [("ref3", 0.6931471805599453), ("rand5", 0.3747879174917935), ("n8", 0.38145944638799)])
    def test_asymptotic_rate_is_the_fitted_slope(self, name, fitted):
        """The asymptotic rate agrees within 1e-3 relative with the slope of
        log max-entry over gaps 1..200 that the report fitted before it read
        the spectral radius."""
        assert check_geometric_decay(build_scenario(name)[1]).asymptotic_rate == pytest.approx(fitted, rel=1e-3)

    def test_tail_bound_covers_a_slow_ring(self, two_matching_ring):
        """On the 256-node two-matching ring one period's norm is 0.9997, so
        sigma^100 > 0.97: the products are far from decayed at gap 200, where
        measured gaps alone could not show the envelope held beyond.  The
        tail bound holds from gap 3, and every product to gap 200 lies under it."""
        s = build_schedule(two_matching_ring(256))
        report = check_geometric_decay(s)
        assert report.passed and [row["tail_gap"] for row in report.phases] == [3, 3]
        ops = s.operators()
        for row in report.phases:
            assert row["norm"] ** 100 > 0.97
            prod = np.eye(256) - 1.0 / 256
            for gap in range(1, 201):
                prod = ops[(row["phase"] + gap - 2) % 2] @ prod
                prod -= prod.mean(axis=0)
                assert np.abs(prod).max() <= row["norm"] ** (gap // 2) * (1.0 + 1e-12)
            assert np.linalg.norm(prod, 2) <= row["norm"] ** 100 * (1.0 + 1e-12)

    def test_report_serializes(self):
        s = build_schedule(ALT3)
        d = dataclasses.asdict(check_geometric_decay(s))
        assert sorted(d) == ["asymptotic_rate", "envelope_rate", "note", "passed", "phases", "worst_ratio", "worst_witness"]
        assert d["passed"] is True
        assert 0.0 <= d["worst_ratio"] < 1.0
        assert [row["phase"] for row in d["phases"]] == [1, 2]
        bound = s.envelope
        witness = d["worst_witness"]
        assert witness["bound"] == bound.amplitude * bound.ratio ** witness["gap"]

