"""Peak-memory bounds of the dense kernel layer, the Picard solver and the
sampler's node limit (tracemalloc, which sees numpy's buffers).  Each dense
product streams kernel panels, so its peak is set by the panel size, not by
the kernel matrix it contracts; a solve holds one kernel, the grid's
free-group table and a few trajectory-sized arrays; a sampler past the node
limit, and an array past the array limit, raise before they are built."""

import json
import shlex
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rsl.bessel import kernel_matrix
from rsl.cli import main
from rsl.cutoffs import smooth_bump
from rsl.dispersion import get_symbol
from rsl.errors import QuadratureUnderresolved
from rsl.estimates import counterexample_wave, maximal_check
from rsl.fastfield import BandFieldSampler
from rsl.grids import PhysicalGrid, gauss_panel_grid, lobatto_panels
from rsl.nonlinear import SolverGrid, build_solver_grid, nls_small_data_experiment
from rsl.propagator import evolve
from rsl.transform import RadialProfile, canonical_band_amplitude, fourier_bessel, profile_from_fn

MB = 1e6


def _peak(fn):
    """(result, peak bytes allocated while fn runs)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_oracle_products_stream():
    # the dense-oracle bench sizes: a 6,000 x 600 Fourier-Bessel kernel
    # (29 MB as one matrix) and the evolutions of criterion 8
    rg = gauss_panel_grid(1e-6, 1.0, 60)
    prof = RadialProfile(rg, smooth_bump(2.0 * rg.nodes), 3)
    sf = gauss_panel_grid(1e-4, 240.0, 600)
    fb, peak = _peak(lambda: fourier_bessel(prof, sf.nodes))
    assert peak <= 16 * MB, peak / MB
    ghat = RadialProfile(sf, fb, 3)
    grid = PhysicalGrid(np.linspace(0.05, 3.0, 60), np.array([0.5, 2.0]))
    _, peak = _peak(lambda: evolve(get_symbol("wave"), ghat, None, grid))
    assert peak <= 16 * MB, peak / MB
    g = gauss_panel_grid(1e-6, 14.0, 700)
    gauss = profile_from_fn(lambda s: np.exp(-(s**2) / 2.0), g, 2)
    grid = PhysicalGrid(np.linspace(1e-6, 8.0, 41), np.array([0.0, 0.7, 2.0, 5.0]))
    _, peak = _peak(lambda: evolve(get_symbol("schrodinger"), gauss, None, grid))
    assert peak <= 16 * MB, peak / MB


def test_solver_grid_holds_one_kernel_matrix():
    # criterion 11's NLS grid at T = 16 (2,070 x 1,220, 20.2 MB): the kernel is
    # filled in place, with no outer-product temporary and no weighted copy.
    # The n = 2 Hankel fit, made once per process, is made before the trace
    kernel_matrix(2, gauss_panel_grid(0.5, 2.0, 2).nodes, np.array([10.0]))
    grid, peak = _peak(lambda: build_solver_grid(2, (0.5, 2.0), 20.0 / 11.0, 16.0,
                                                  get_symbol("schrodinger")))
    assert np.shares_memory(grid.synth, grid.anal)
    assert peak <= 1.1 * grid.synth.nbytes, (peak / MB, grid.synth.nbytes / MB)


def test_nls_experiment_peak():
    # the bench's NLS experiment (n = 2, s = -1/10, T = 4, four seeds): a
    # 1,230 x 660 kernel (6.5 MB), (116 x 1,230)-sample frequency
    # trajectories (2.3 MB each) and (116 x 660)-sample fields (1.2 MB each).
    # It peaks at 18.2 MB.  On the 1,230 x 930 grid of 10-node radius panels
    # it peaked at 22.6 MB, on the 1,230 x 1,240 grid of a fixed 60-unit
    # radius margin at 26.1 MB with one free-group table per grid, and at
    # 37.6 MB when every seed built its own linear trajectory.
    rep, peak = _peak(lambda: nls_small_data_experiment(2, Fraction(-1, 10), 1e-3,
                                                        seeds=range(4), T=4.0))
    assert rep.all_converged
    assert peak <= 31 * MB, peak / MB


@pytest.mark.parametrize("T, r_window, grid", [
    (1e6, None, "inner frequency grid"),    # 8.5M nodes, a 10.9 GB inner kernel
    (4.0, (16.0, 2e6), "radius grid"),      # 7.6M outer radii
])
def test_sampler_past_node_limit_raises_before_allocating(T, r_window, grid):
    amp = canonical_band_amplitude(2, 0)

    def build():
        with pytest.raises(QuadratureUnderresolved, match=grid):
            BandFieldSampler(get_symbol("schrodinger"), 2, 0, amp, T, r_window=r_window)

    _, peak = _peak(build)
    assert peak <= 16 * MB, peak / MB


def test_counterexample_wave_peak():
    # Ghat on 1,600 taus from 6,001 band nodes through one chirp-Z plan; the
    # dense 1,600 x 6,001 complex exponential peaked at 293 MB
    rep, peak = _peak(lambda: counterexample_wave(2, 4, [2.0**i for i in range(4, 11)]))
    assert rep.diverges
    assert peak <= 16 * MB, peak / MB


@pytest.mark.parametrize("line, array", [
    ("norm-sweep --T0 4e5", "band 0 inner kernel"),      # 3.4M x 160, 4.3 GB
    ("propagate --k 8", "band 8 inner kernel"),          # 1.1M x 160, 1.4 GB
    ("solve-nls --T 512", "solver kernel"),              # 37,080 x 24,800, 7.4 GB
    ("maximal --k 13..14", "maximal band 13 block"),     # 32 x 2.1M, 1.6 GB with magnitudes
    ("maximal --k 14..15", "maximal band 14 block"),     # 32 x 4.2M complex, 2.15 GB
])
def test_array_past_limit_exits_2_before_allocating(line, array, tmp_path, capsys):
    code, peak = _peak(lambda: main(["--output", str(tmp_path), *shlex.split(line)]))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "QuadratureUnderresolved" and err["detail"].startswith(array)
    assert peak <= 16 * MB, peak / MB


def test_maximal_block_holds_its_declared_bytes():
    # bands 2 and 3 at a = 2 run 32 x 8,192 blocks: the complex block is
    # transformed in place and its magnitudes scaled in place, so the loop
    # holds 24 bytes an entry (6.3 MB; 12.6 MB with a separate inverse-FFT
    # output and scaled copy), as `require_array_limit` is told
    _, peak = _peak(lambda: maximal_check(2.0, range(2, 4)))
    assert peak <= 7 * MB, peak / MB


def test_free_group_table_past_limit_raises_before_allocating():
    # 70,001 times x 1,000 nodes: a 1.1 GB complex table
    grid = SolverGrid.on(2, gauss_panel_grid(0.5, 2.0, 100), gauss_panel_grid(1e-9, 10.0, 4),
                         lobatto_panels(1.0, 10_000)[0])

    def build():
        with pytest.raises(QuadratureUnderresolved, match="free-group table"):
            grid.free_group(grid.freq.nodes)

    _, peak = _peak(build)
    assert peak <= 16 * MB, peak / MB
