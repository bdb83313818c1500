"""Fig. 3 — cell vs 1KB-array leakage distributions across corners.

Paper: intra-die RDF makes single-cell leakage distributions from
different inter-die corners overlap, while the 1KB-array totals
(sums of ~8k cells, central limit theorem) separate cleanly — the
justification for array-level leakage monitoring.
"""

from repro.experiments import repair


def test_fig3(ctx, save_result):
    result = repair.fig3(ctx, n_cell_samples=30_000, n_arrays=300)
    save_result("fig3", result.rows())

    # Cells: a solid fraction of the nominal population is
    # indistinguishable from the corner populations.
    assert result.overlap_fraction("cell") > 0.3
    # Arrays: essentially complete separation.
    assert result.overlap_fraction("array") < 0.005
    # Means are ordered by corner (leakier at low Vt) at both scales.
    corners = sorted(result.corners)
    cell_means = [result.cell_samples[c].mean() for c in corners]
    array_means = [result.array_samples[c].mean() for c in corners]
    assert cell_means[0] > cell_means[1] > cell_means[2]
    assert array_means[0] > array_means[1] > array_means[2]
    # The array total is ~n_cells times the cell mean (CLT consistency).
    ratio = array_means[1] / (cell_means[1] * result.array_cells)
    assert 0.95 < ratio < 1.05
