"""Tests for the experiment harness (shape criteria for E1-E8, A1)."""

import pytest

from repro.eval import harness
from repro.eval.tables import format_table


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "x"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_none_blank(self):
        text = format_table(["x"], [[None]])
        assert text.splitlines()[2].strip() == ""

    def test_format_table_row_width_check(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only-one"]])


class TestFigures:
    def test_figure1_text(self):
        text = harness.reproduce_figure1()
        assert "130" in text and "410" in text and "3428" in text

    def test_figure2_text(self):
        text = harness.reproduce_figure2()
        assert "1290" in text  # smoker row total
        assert "RELATION OF SMOKING TO CANCER" in text


class TestTable1:
    def test_every_sign_matches_paper(self):
        comparisons, _text = harness.reproduce_table1()
        assert len(comparisons) == 16
        assert all(c.sign_match for c in comparisons)

    def test_most_significant_ranking(self):
        """The paper's top-3: AB11, AC11, AC12 — ours must rank the same
        cells as the three most negative."""
        comparisons, _text = harness.reproduce_table1()
        ours_top = sorted(comparisons, key=lambda c: c.ours_delta)[:3]
        ours_keys = {(c.subset, c.values) for c in ours_top}
        assert ours_keys == {
            (("SMOKING", "CANCER"), (0, 0)),
            (("SMOKING", "FAMILY_HISTORY"), (0, 0)),
            (("SMOKING", "FAMILY_HISTORY"), (0, 1)),
        }

    def test_deltas_close_to_paper(self):
        comparisons, _text = harness.reproduce_table1()
        for c in comparisons:
            assert c.ours_delta == pytest.approx(c.paper_delta, abs=0.08)


class TestTable2:
    def test_converges(self):
        fit, text = harness.reproduce_table2()
        assert fit.converged
        assert "TABLE 2" in text

    def test_trace_hits_constraint(self):
        fit, _text = harness.reproduce_table2()
        pair = fit.model.marginal(["SMOKING", "FAMILY_HISTORY"])
        assert pair[0, 1] == pytest.approx(750 / 3428, abs=1e-8)

    def test_cell_factor_ends_above_one(self):
        fit, _text = harness.reproduce_table2()
        final = fit.trace[-1]["a^SMOKING,FAMILY_HISTORY_1,2"]
        assert final > 1.0


class TestDiscoveryAndSolvers:
    def test_discovery_shape(self):
        result, text = harness.reproduce_discovery()
        # Shape criteria: smoking-cancer association found first; the
        # conditional ordering the paper motivates holds.
        assert result.found[0].attributes == ("SMOKING", "CANCER")
        smoker = result.model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "smoker"}
        )
        non_smoker = result.model.conditional(
            {"CANCER": "yes"}, {"SMOKING": "non-smoker"}
        )
        assert smoker > non_smoker
        assert "Sample queries" in text

    def test_solver_comparison_agreement(self):
        (newton, gevarter), text = harness.reproduce_solver_comparison()
        assert newton.converged and gevarter.converged
        assert "newton" in text and "gevarter" in text

    def test_appendix_b_rows_agree(self):
        rows, _text = harness.reproduce_appendix_b()
        for row in rows:
            assert row[3] < 1e-8  # |dense - factored|


class TestRecoveryExperiment:
    def test_small_run_shapes(self):
        rows, text = harness.selector_recovery_experiment(
            seed=1, trials=2, n=8000
        )
        selectors = {r.selector for r in rows}
        assert selectors == {"mml", "chi2", "bic"}
        assert len(rows) == 6
        assert "A1" in text

    def test_mml_recall_reasonable(self):
        """With strong signals and plenty of data, MML recall > 0.5."""
        import numpy as np

        rows, _text = harness.selector_recovery_experiment(
            seed=0, trials=3, n=20000, strength=4.0
        )
        mml_recall = np.mean(
            [r.recall for r in rows if r.selector == "mml"]
        )
        assert mml_recall >= 0.5
