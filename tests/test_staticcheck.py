"""Golden tests for the static analyzer (repro.staticcheck).

Pins (1) the call-graph shape of every bundled app's static model,
(2) the exact hazard list per app/variant — the paper's NUMA case
studies must be predicted on their `original` variants and the fixed
variants must come back clean — (3) the per-variable context counts
(AMG's seven problem arrays reaching one shared hypre_CAlloc site is
the Figure 5 shape), (4) exact single hits on the seeded static
defects, and (5) the reconciliation loop: H001 predictions confirmed
by dynamic remote-access metrics.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.analyzer import Analyzer
from repro.errors import ConfigError
from repro.staticcheck import (
    MIN_SHARE,
    STATIC_APPS,
    analyze_model,
    build_callgraph,
    build_static_model,
    reconcile,
)
from repro.staticcheck.model import CallSite

REPO = Path(__file__).resolve().parents[1]


def _load_defects():
    spec = importlib.util.spec_from_file_location(
        "defect_corpus", REPO / "examples" / "defects.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# app -> variant -> (n_functions, n_edges, n_reachable)
GRAPH_GOLDEN = {
    "nw": {"original": (3, 2, 3), "libnuma": (3, 2, 3)},
    "streamcluster": {"original": (6, 5, 5), "parallel-init": (6, 6, 6)},
    "lulesh": {
        "original": (5, 4, 5),
        "libnuma": (5, 4, 5),
        "both": (5, 4, 5),
    },
    "amg2006": {
        "original": (15, 20, 15),
        "numactl": (15, 20, 15),
        "libnuma": (15, 13, 14),
    },
    "sweep3d": {"original": (3, 2, 3), "transposed": (3, 2, 3)},
}

LULESH_DOMAIN_ARRAYS = (
    "m_x", "m_y", "m_z", "m_xd", "m_yd", "m_zd",
    "m_fx", "m_fy", "m_fz", "m_e", "m_p", "m_q",
)
AMG_PROBLEM_ARRAYS = (
    "A_diag_i", "A_diag_j", "A_diag_data",
    "S_diag_i", "S_diag_j",
    "P_diag_j", "P_diag_data",
)

# app -> variant -> sorted list of (code, variable) the analyzer must
# produce, exactly.
FINDINGS_GOLDEN = {
    "nw": {
        "original": [("H001", "input_itemsets"), ("H001", "referrence")],
        "libnuma": [],
    },
    "streamcluster": {
        # point.p stays below MIN_SHARE by design: the deliberate
        # static miss that the reconciliation pass demonstrates.
        "original": [("H001", "block")],
        "parallel-init": [],
    },
    "lulesh": {
        "original": sorted(("H001", v) for v in LULESH_DOMAIN_ARRAYS),
        "libnuma": [],
        "both": [],
    },
    "amg2006": {
        "original": sorted(
            [("H001", v) for v in AMG_PROBLEM_ARRAYS]
            + [("H003", "Vtemp_data")]
        ),
        "numactl": [("H003", "Vtemp_data")],
        "libnuma": [("H003", "Vtemp_data")],
    },
    "sweep3d": {"original": [], "transposed": []},
}

ALL_CASES = [
    (app, variant)
    for app, variants in GRAPH_GOLDEN.items()
    for variant in variants
]


@pytest.fixture(scope="module")
def reports():
    return {
        (app, variant): analyze_model(build_static_model(app, variant))
        for app, variant in ALL_CASES
    }


class TestCallGraphGolden:
    @pytest.mark.parametrize("app,variant", ALL_CASES)
    def test_graph_shape(self, reports, app, variant):
        report = reports[(app, variant)]
        assert (
            report.n_functions, report.n_edges, report.n_reachable
        ) == GRAPH_GOLDEN[app][variant]
        assert not report.truncated

    def test_registry_lists_all_apps(self):
        from repro.parallel.registry import APPS

        assert set(STATIC_APPS) == set(GRAPH_GOLDEN)
        # One app table: the static registry lists exactly the driver's apps.
        assert STATIC_APPS == APPS

    def test_outlined_edges_present(self):
        model = build_static_model("nw")
        graph = build_callgraph(model)
        edges = {(caller, callee) for caller, _line, callee, _kind in graph.edges}
        assert ("_Z7runTestiPPc", "_Z7runTestiPPc$$OL$$0") in edges

    def test_interprocedural_contexts(self):
        # streamcluster's dist() is reached through BOTH pgain regions:
        # the reaching analysis must see two distinct contexts.
        model = build_static_model("streamcluster")
        graph = build_callgraph(model)
        ctxs = graph.contexts_of("_Z4distP5PointS0_i")
        assert len(ctxs) == 2
        hosts = {frame.fn for ctx in ctxs for frame in ctx}
        assert "_Z5pgainlP6Points$$OL$$0" in hosts
        assert "_Z5pgainlP6Points$$OL$$1" in hosts


class _StubModel:
    """Just the three attributes ``build_callgraph`` reads.

    Building a combinatorial call structure through ``StaticModel``
    would need a real ``SimProcess`` with hundreds of functions; the
    enumeration cap is a property of the graph walk alone, so a stub
    keeps the tests on-point.
    """

    def __init__(self, functions, entries, calls):
        self.functions = {fn: None for fn in functions}
        self.entries = list(entries)
        self.calls = list(calls)


def _fanout_model(width: int):
    """main calls f at ``width`` sites; f calls g at ``width`` sites.

    g is reached through ``width**2`` distinct contexts — enough to
    cross any small ``max_contexts`` cap.
    """
    calls = [CallSite("main", line, "f", "call") for line in range(1, width + 1)]
    calls += [CallSite("f", line, "g", "call") for line in range(1, width + 1)]
    return _StubModel(["main", "f", "g"], ["main"], calls)


class TestContextEnumerationCap:
    """The cap truncates with a flag instead of blowing up (callgraph.py)."""

    def test_truncated_false_below_cap(self):
        graph = build_callgraph(_fanout_model(3))
        assert not graph.truncated
        assert len(graph.contexts_of("g")) == 9

    def test_max_contexts_caps_bucket_and_sets_flag(self):
        graph = build_callgraph(_fanout_model(10), max_contexts=16)
        assert graph.truncated
        assert len(graph.contexts_of("g")) == 16
        # Other buckets stay complete: only g crossed the cap.
        assert len(graph.contexts_of("f")) == 10

    def test_capped_enumeration_is_a_prefix_of_the_full_one(self):
        # Determinism pin: the cap must keep the FIRST max_contexts
        # contexts of the full enumeration, not an arbitrary subset.
        full = build_callgraph(_fanout_model(10)).contexts_of("g")
        capped = build_callgraph(_fanout_model(10), max_contexts=16)
        assert capped.contexts_of("g") == full[:16]

    def test_capped_contexts_sorted_and_reproducible(self):
        # Call sites are declared in ascending line order, so the DFS
        # emits contexts in sorted (caller, line)-tuple order; repeated
        # builds must agree exactly.
        first = build_callgraph(_fanout_model(10), max_contexts=16)
        second = build_callgraph(_fanout_model(10), max_contexts=16)
        ctxs = first.contexts_of("g")
        assert ctxs == second.contexts_of("g")
        keys = [tuple((fr.fn, fr.line) for fr in ctx) for ctx in ctxs]
        assert keys == sorted(keys)

    def test_max_depth_stops_deep_chains(self):
        fns = [f"f{i}" for i in range(12)]
        calls = [
            CallSite(fns[i], 1, fns[i + 1], "call")
            for i in range(len(fns) - 1)
        ]
        model = _StubModel(fns, [fns[0]], calls)
        graph = build_callgraph(model, max_depth=4)
        assert graph.truncated
        # Functions within the depth budget keep their one context;
        # anything deeper is simply never visited.
        assert graph.reachable("f4")
        assert not graph.reachable("f5")
        full = build_callgraph(model)
        assert not full.truncated
        assert all(full.reachable(fn) for fn in fns)

    def test_cycle_cut_flags_truncation_but_terminates(self):
        calls = [
            CallSite("main", 1, "f", "call"),
            CallSite("f", 2, "g", "call"),
            CallSite("g", 3, "f", "call"),  # back edge
        ]
        graph = build_callgraph(_StubModel(["main", "f", "g"], ["main"], calls))
        assert graph.truncated
        assert len(graph.contexts_of("f")) == 1
        assert len(graph.contexts_of("g")) == 1

    def test_bundled_models_fit_comfortably_under_the_defaults(self, reports):
        # The GRAPH_GOLDEN pin already asserts not-truncated per app;
        # this pins the headroom so a default-cap change cannot silently
        # start truncating real models.
        for report in reports.values():
            assert not report.truncated


class TestFindingsGolden:
    @pytest.mark.parametrize("app,variant", ALL_CASES)
    def test_exact_findings(self, reports, app, variant):
        report = reports[(app, variant)]
        got = sorted((f.code, f.variable) for f in report.findings)
        assert got == FINDINGS_GOLDEN[app][variant]

    @pytest.mark.parametrize("app,variant", ALL_CASES)
    def test_each_defect_flagged_at_most_once(self, reports, app, variant):
        report = reports[(app, variant)]
        keys = [(f.code, f.variable) for f in report.findings]
        assert len(keys) == len(set(keys))

    def test_zero_false_placement_findings_on_clean_variants(self, reports):
        clean = [
            ("nw", "libnuma"), ("streamcluster", "parallel-init"),
            ("lulesh", "libnuma"), ("lulesh", "both"),
            ("amg2006", "numactl"), ("amg2006", "libnuma"),
            ("sweep3d", "original"), ("sweep3d", "transposed"),
        ]
        for key in clean:
            codes = reports[key].codes
            assert "H001" not in codes and "H002" not in codes, key

    def test_h001_carries_variable_site_and_context(self, reports):
        finding = reports[("nw", "original")].finding_for("referrence")
        assert finding.code == "H001"
        assert finding.site == "main:50"
        assert finding.contexts == ("main:45",)
        assert "NUMA" in finding.message or "nodes" in finding.message

    def test_amg_h003_names_the_region_alloc(self, reports):
        finding = reports[("amg2006", "original")].finding_for("Vtemp_data")
        assert finding.code == "H003"
        assert finding.site == "hypre_BoomerAMGSolve$$OL$$0:465"


class TestVariableSummaries:
    def test_amg_problem_arrays_share_alloc_site_contexts(self, reports):
        # Seven arrays allocated through one hypre_CAlloc call site,
        # reached by seven distinct contexts — Figure 5's shape.
        report = reports[("amg2006", "original")]
        for var in report.variables:
            if var.name in AMG_PROBLEM_ARRAYS:
                assert var.n_alloc_contexts == 7, var.name

    def test_amg_libnuma_flattens_the_alloc_contexts(self, reports):
        report = reports[("amg2006", "libnuma")]
        for var in report.variables:
            if var.name in AMG_PROBLEM_ARRAYS:
                assert var.n_alloc_contexts == 1, var.name

    def test_nw_context_counts(self, reports):
        by_name = {v.name: v for v in reports[("nw", "original")].variables}
        assert by_name["input_itemsets"].n_access_contexts == 3
        assert by_name["referrence"].n_access_contexts == 2

    def test_static_storage_size_comes_from_the_image(self, reports):
        by_name = {v.name: v for v in reports[("lulesh", "original")].variables}
        assert by_name["f_elem"].storage == "static"
        assert by_name["f_elem"].nbytes == 393216

    def test_variables_sorted_by_share(self, reports):
        for report in reports.values():
            shares = [v.share for v in report.variables]
            assert shares == sorted(shares, reverse=True)


class TestStaticSeeds:
    @pytest.fixture(scope="class")
    def corpus(self):
        return _load_defects()

    def test_every_seed_hits_exactly_its_expected_hazard(self, corpus):
        for name, builder in corpus.STATIC_SEEDS.items():
            report = analyze_model(builder())
            codes, variable = corpus.STATIC_EXPECTED[name]
            got = tuple(f.code for f in report.findings)
            assert got == codes, name
            if variable is not None:
                assert report.findings[0].variable == variable, name

    def test_seed_sites(self, corpus):
        report = analyze_model(corpus.STATIC_SEEDS["master_first_touch"]())
        f = report.finding_for("table")
        assert (f.fn, f.line) == ("main", 10)  # the calloc commits placement
        report = analyze_model(corpus.STATIC_SEEDS["parallel_no_free"]())
        f = report.finding_for("stream")
        assert (f.fn, f.line) == ("main$$OL$$1", 105)
        report = analyze_model(corpus.STATIC_SEEDS["dead_alloc"]())
        f = report.finding_for("ghost")
        assert (f.fn, f.line) == ("orphan_init", 205)

    def test_corpus_self_check_is_green(self, corpus, capsys):
        assert corpus.main() == 0


class TestReconcile:
    def test_defect_h001_confirmed_by_dynamic_profile(self):
        corpus = _load_defects()
        report = analyze_model(corpus.STATIC_SEEDS["master_first_touch"]())
        db = corpus.STATIC_PROFILE_RUNNERS["master_first_touch"]()
        exp = Analyzer("defects").add(db).analyze()
        rec = reconcile(report, exp)
        h001 = [v for v in rec.verdicts if v.code == "H001"]
        assert h001 and all(v.label == "confirmed" for v in h001)
        assert rec.precision == 1.0 and rec.recall == 1.0
        assert rec.n_missed == 0

    def test_nw_h001_predictions_confirmed(self):
        from repro.apps.nw import run_rank

        report = analyze_model(build_static_model("nw"))
        exp = Analyzer("nw").add(run_rank(0, 1)).analyze()
        rec = reconcile(report, exp)
        confirmed = {v.variable for v in rec.with_label("confirmed")}
        assert confirmed == {"referrence", "input_itemsets"}
        assert rec.precision == 1.0 and rec.recall == 1.0

    def test_streamcluster_below_threshold_var_is_not_predicted(self):
        # point.p sits below the static share threshold by design: the
        # documented boundary of structure-only analysis (its dynamic
        # samples, when present, are what reconciliation would surface).
        report = analyze_model(build_static_model("streamcluster"))
        assert report.finding_for("point.p") is None
        assert any(v.name == "point.p" for v in report.variables)

    def test_unpredicted_remote_dominant_var_reported_missed(self):
        # Strip the predictions: the remote-dominant variable must then
        # surface as a miss, and recall must drop to zero.
        corpus = _load_defects()
        report = analyze_model(corpus.STATIC_SEEDS["master_first_touch"]())
        report.findings.clear()
        db = corpus.STATIC_PROFILE_RUNNERS["master_first_touch"]()
        exp = Analyzer("defects").add(db).analyze()
        rec = reconcile(report, exp)
        missed = rec.with_label("missed")
        assert [v.variable for v in missed] == ["table"]
        assert rec.recall == 0.0


class TestModelValidation:
    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigError):
            build_static_model("nope")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            build_static_model("nw", "nope")

    def test_site_outside_function_span_rejected(self):
        model = build_static_model("nw")
        with pytest.raises(ConfigError):
            model.access("main", 999, "referrence", weight=1.0)

    def test_unknown_function_rejected(self):
        model = build_static_model("nw")
        with pytest.raises(ConfigError):
            model.alloc("nofn", 1, "x", 16)

    def test_region_host_mismatch_rejected(self):
        model = build_static_model("nw")
        with pytest.raises(ConfigError):
            model.parallel_region("main", 50, "_Z7runTestiPPc$$OL$$0", 4)

    def test_min_share_threshold_matches_guidance(self):
        from repro.core.guidance import _MIN_SHARE

        assert MIN_SHARE == _MIN_SHARE
