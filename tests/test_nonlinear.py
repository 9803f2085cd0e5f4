import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import rsl.nonlinear as nonlinear
from rsl.admissibility import choose_pairs_nls, choose_pairs_nlw, s0
from rsl.dispersion import fractional_symbol, get_symbol
from rsl.errors import DomainError, OutOfRangeS, OutOfRangeSigma
from rsl.grids import (PhysicalGrid, gauss_panel_grid, lobatto_panels,
                       panel_grid)
from rsl.nonlinear import (
    DATA_BAND,
    NonlinearProblem,
    SolverGrid,
    build_solver_grid,
    check_fnls_range,
    check_nls_range,
    check_nlw_range,
    fnls_experiment,
    nls_small_data_experiment,
    nlw_small_data_experiment,
    picard_solve,
    random_band_profile,
    scattering_state,
)
from rsl.propagator import evolve
from rsl.transform import RadialProfile, sobolev_norm, sphere_area

P_NLS = 20.0 / 11.0  # p at s_sch = -1/10, n = 2
# s^2 has the NLS generator's |omega| and |omega'|, so build_solver_grid
# builds the NLS grid from it
SCH = get_symbol("schrodinger")


def _nls_problem(seed=0, delta=1e-3, mu=1):
    rng = np.random.default_rng(seed)
    data = random_band_profile(2, rng, s_norm=-0.1, target=delta)
    return NonlinearProblem("nls", 2, P_NLS, mu=mu, data=data)


def _front(T, group_speed):
    """The group-speed front 1.15 T v that both solver-grid reaches start from."""
    return 1.15 * T * group_speed


def _with_radius(grid, p, r_max, order=nonlinear.R_PANEL_ORDER, phase=nonlinear.R_PANEL_PHASE):
    """`grid`'s frequency and time nodes with a radius grid reaching r_max,
    panelled for the data band DATA_BAND by build_solver_grid's rule
    (panels of `order` nodes spanning `phase` radians of kernel phase)."""
    s_hi = (p + 1.0) * DATA_BAND[1] * 1.1
    rgrid = gauss_panel_grid(1e-9, r_max, int(np.ceil(r_max * s_hi / phase)) + 2, order)
    return SolverGrid.on(2, grid.freq, rgrid, grid.t)


def test_random_profile_normalization():
    rng = np.random.default_rng(1)
    prof = random_band_profile(2, rng, s_norm=-0.1, target=1e-3)
    assert sobolev_norm(prof, -0.1) == pytest.approx(1e-3, rel=1e-3)
    # band-limited support
    assert np.all(np.abs(prof.fn(np.array([0.4, 2.2]))) == 0.0)


def test_solver_grid_round_trip():
    # the round trip is limited by the radial truncation of the physical
    # tail (the data envelope decays sub-exponentially), not by quadrature;
    # the solver diagnostics (mass, contraction, deviations) are insensitive
    # to this representation floor
    grid = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, SCH, real_field=False)
    rng = np.random.default_rng(2)
    prof = random_band_profile(2, rng, s_norm=0.0, target=1.0)
    h = prof.fn(grid.freq.nodes)
    phys = grid.to_physical(h[None, :])
    back = grid.to_frequency(phys)[0]
    num = np.sqrt(np.sum(grid.freq.weights * np.abs(back - h) ** 2 * grid.freq.nodes))
    den = np.sqrt(np.sum(grid.freq.weights * np.abs(h) ** 2 * grid.freq.nodes))
    assert num / den < 2e-3
    assert np.max(np.abs(phys[0, -3:])) < 1e-4 * np.max(np.abs(phys))
    # enlarging the radial domain by 120 on the same frequency grid drives
    # the round trip down (truncation tail)
    r_max = _front(8.0, 4.0) + nonlinear.R_TAIL / DATA_BAND[0]
    wide = _with_radius(grid, P_NLS, r_max + 120.0)
    h2 = prof.fn(wide.freq.nodes)
    back2 = wide.to_frequency(wide.to_physical(h2[None, :]))[0]
    num2 = np.sqrt(np.sum(wide.freq.weights * np.abs(back2 - h2) ** 2 * wide.freq.nodes))
    den2 = np.sqrt(np.sum(wide.freq.weights * np.abs(h2) ** 2 * wide.freq.nodes))
    assert num2 / den2 < 0.2 * num / den


# the bench's picard configurations at T = 4: (experiment, arguments, seeds)
BENCH_EXPERIMENTS = {
    "nls": (nls_small_data_experiment, (2, Fraction(-1, 10), 1e-3), [0, 1]),
    "fnls": (fnls_experiment, (2, 1.5, 1.5, 0.0, 1e-3), [0]),
    "nlw": (nlw_small_data_experiment, (2, Fraction(3, 10), 1e-3), [0, 1]),
}


def _bench_runs():
    return {kind: exp(*args, seeds=seeds, T=4.0).runs
            for kind, (exp, args, seeds) in BENCH_EXPERIMENTS.items()}


def _assert_bench_runs_agree(runs, ref_runs):
    """The solution norms within 1e-8 relative, and the FNLS conservation
    drifts at their rounding floor on both sides (the time panels conserve
    mass and energy to rounding, so their digits compare noise)."""
    for kind in ("nls", "fnls", "nlw"):
        for got, ref in zip(runs[kind], ref_runs[kind]):
            assert got["converged"] and ref["converged"]
            rel = abs(got["solution_norm"] - ref["solution_norm"]) / ref["solution_norm"]
            assert rel <= 1e-8, (kind, got["seed"], rel)
    for got, ref in zip(runs["fnls"], ref_runs["fnls"]):
        for key in ("mass_drift", "energy_drift"):
            assert max(got[key], ref[key]) <= 1e-13, (key, got[key], ref[key])


def _bench_runs_on(monkeypatch, radius_grid):
    """The bench runs on build_solver_grid's frequency and time nodes with
    the radius grid radius_grid(solver grid, p, front, tail), from the
    solver grid's front 1.15 T v and tail R_TAIL / s_lo."""
    build = nonlinear.build_solver_grid

    def rebuilt(n, band, p, T, generator, *, real_field):
        return radius_grid(build(n, band, p, T, generator, real_field=real_field), p,
                           _front(T, generator.sup_dphi(*band)), nonlinear.R_TAIL / band[0])

    with monkeypatch.context() as m:
        m.setattr(nonlinear, "build_solver_grid", rebuilt)
        return _bench_runs()


def test_radius_tail_converged(monkeypatch):
    # the radius grid's tail R_TAIL / s_lo against twice that tail on the same
    # frequency and time nodes and the same panel rule
    wide = _bench_runs_on(monkeypatch, lambda grid, p, front, tail: _with_radius(
        grid, p, front + 2.0 * tail))
    _assert_bench_runs_agree(_bench_runs(), wide)


def test_time_panels_converged(monkeypatch):
    # the solver's 8-node Lobatto panels (6 rad for NLS and FNLS, 4 rad for
    # NLW) against an independent time rule, 10-node panels at a quarter of
    # the width (other nodes, weights and collocation polynomial), on the
    # same spatial grids
    fine = _bench_runs_on(monkeypatch, lambda grid, p, front, tail: dataclasses.replace(
        grid, t=lobatto_panels(grid.t[-1], 4 * grid.time_panels, 10)[0], time_order=10))
    _assert_bench_runs_agree(_bench_runs(), fine)


GENERATORS = {"nls": (SCH, 2.0), "fnls": (fractional_symbol(1.5), 1.5),
              "nlw": (get_symbol("wave"), 1.0)}


@pytest.mark.parametrize("kind", GENERATORS)
def test_time_panels_scale_covariant(kind):
    # the critical rescaling (T, band) -> (T / lam^a, lam band) multiplies
    # sup|omega| by lam^a and keeps the panel count: the times scale by
    # 1 / lam^a (the time half of the solver's scaling law)
    symbol, a = GENERATORS[kind]
    p = {"nls": P_NLS, "fnls": 1.5, "nlw": float(choose_pairs_nlw(2, Fraction(3, 10)).p)}[kind]
    for T in (4.0, 16.0):
        grid = build_solver_grid(2, DATA_BAND, p, T, symbol, real_field=kind == "nlw")
        for lam in (2.0, 0.5, 0.25):
            band = (lam * DATA_BAND[0], lam * DATA_BAND[1])
            scaled = build_solver_grid(2, band, p, T / lam ** a, symbol, real_field=kind == "nlw")
            assert scaled.time_panels == grid.time_panels, (T, lam)
            np.testing.assert_allclose(scaled.t * lam ** a, grid.t, rtol=1e-14, atol=0.0)


def test_radius_panels_converged(monkeypatch):
    # the solver's 20-node radius panels at 12 radians against 10-node
    # panels at 2 radians on the same reach, frequency and time nodes
    fine = _bench_runs_on(monkeypatch, lambda grid, p, front, tail: _with_radius(
        grid, p, front + tail, order=10, phase=2.0))
    _assert_bench_runs_agree(_bench_runs(), fine)


@pytest.mark.parametrize("T", [4.0, 8.0, 16.0])
@pytest.mark.parametrize("kind", BENCH_EXPERIMENTS)
def test_frequency_and_time_nodes_keep_their_reach(kind, T):
    # the frequency panels resolve the reach 1.15 T v + 60 whatever the
    # radius grid's tail, so the frequency nodes are those of the one-reach
    # rule r_max = 1.15 T v + 60, bit for bit, and the frequency grid is
    # grids.panel_grid's for that reach; the times are 8-node Lobatto panels
    # spanning 6 rad (NLS, FNLS) or 4 rad (NLW) of (p+1) sup|omega| each
    p = {"nls": P_NLS, "fnls": 1.5, "nlw": float(choose_pairs_nlw(2, Fraction(3, 10)).p)}[kind]
    symbol = {"nls": get_symbol("schrodinger"), "fnls": fractional_symbol(1.5),
              "nlw": get_symbol("wave")}[kind]
    v = symbol.sup_dphi(*DATA_BAND)
    grid = build_solver_grid(2, DATA_BAND, p, T, symbol, real_field=kind == "nlw")
    s_hi = (p + 1.0) * DATA_BAND[1] * 1.1
    s_lo = DATA_BAND[0] / 8.0
    reach = _front(T, v) + 60.0
    freq = gauss_panel_grid(s_lo, s_hi, int(np.ceil((s_hi - s_lo) * reach / 4.0)) + 2)
    degree = {"nls": 2.0, "fnls": 1.5, "nlw": 1.0}[kind]
    phase = {"nls": 6.0, "fnls": 6.0, "nlw": 4.0}[kind]
    panels = int(np.ceil(T * (p + 1.0) * DATA_BAND[1] ** degree / phase))
    assert np.array_equal(grid.freq.nodes, freq.nodes)
    assert np.array_equal(grid.freq.weights, freq.weights)
    ruled = panel_grid(s_lo, s_hi, reach, "solver frequency grid")
    assert np.array_equal(grid.freq.nodes, ruled.nodes)
    assert np.array_equal(grid.freq.weights, ruled.weights)
    assert np.array_equal(grid.t, lobatto_panels(T, panels, 8)[0])
    assert grid.time_panels == panels and grid.t.size == 7 * panels + 1
    assert grid.r[-1] < _front(T, v) + nonlinear.R_TAIL / DATA_BAND[0] < reach


def test_real_transforms_match_complex_product():
    # the benchmark's NLS grid; the split real GEMMs against the complex
    # product with the weighted matrices (weights w times synth or anal)
    grid = build_solver_grid(2, (0.5, 2.0), P_NLS, 4.0, SCH, real_field=False)
    rng = np.random.default_rng(7)

    def operand(cols):
        shape = (grid.t.size, cols)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    coeff, phys = operand(grid.freq.nodes.size), operand(grid.r.size)
    for transform, m, w, x in [
        (grid.to_physical, grid.synth, grid.synth_weights, coeff),
        (grid.to_physical, grid.synth, grid.synth_weights, coeff[5]),
        (grid.to_physical, grid.synth, grid.synth_weights, coeff.real),
        (grid.to_frequency, grid.anal, grid.anal_weights, phys),
        (grid.to_frequency, grid.anal, grid.anal_weights, phys[5]),
        (grid.to_frequency, grid.anal, grid.anal_weights, phys.real),
    ]:
        ref = x.astype(complex) @ (w[:, None] * m).astype(complex)
        got = transform(x)
        assert got.shape == ref.shape
        assert np.iscomplexobj(got) == np.iscomplexobj(x)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_linear_consistency_bitwise():
    prob = _nls_problem(mu=0)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    grid = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, prob.generator_symbol(), real_field=False)
    fld, trace = picard_solve(prob, pairs, 8.0, grid=grid)
    assert trace.converged and trace.contraction_factor == 0.0
    s = grid.freq.nodes
    omega = prob.generator_symbol().phi(s)
    linear = np.exp(1j * np.outer(grid.t, omega)) * prob.data.fn(s)[None, :]
    assert np.array_equal(fld.coeff, linear)
    # and against the propagator module on the same nodes
    sub_t = grid.t[:: max(grid.t.size // 8, 1)]
    ref = evolve(prob.generator_symbol(), prob.data, None,
                 PhysicalGrid(grid.r, sub_t))
    mine = fld.values[:: max(grid.t.size // 8, 1)]
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(mine[: ref.values.shape[0]] - ref.values)) / scale < 1e-10


def test_small_data_contraction_and_scattering():
    prob = _nls_problem(seed=3)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    fld, trace = picard_solve(prob, pairs, 16.0)
    assert trace.converged
    assert trace.contraction_factor <= 0.5
    assert trace.mass_drift <= 1e-6
    diag = scattering_state(fld, -0.1)
    # linear-only pullback is constant; nonlinear deviation decays on the tail
    tail = np.asarray(diag.deviation)[len(diag.deviation) // 2:]
    assert tail[-2] <= 1e-2 * 1e-3


def test_scattering_pullback_constant_for_linear():
    prob = _nls_problem(seed=4, mu=0)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    fld, _ = picard_solve(prob, pairs, 8.0)
    diag = scattering_state(fld, -0.1)
    assert max(diag.deviation) < 1e-12


def test_contraction_monotone_in_amplitude():
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    factors = []
    for delta in (0.05, 0.2, 0.8):
        prob = _nls_problem(seed=9, delta=delta)
        grid = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, prob.generator_symbol(),
                                 real_field=False)
        _, trace = picard_solve(prob, pairs, 8.0, grid=grid, max_iter=6, tol=1e-12)
        factors.append(trace.contraction_factor)
    assert factors[0] <= factors[1] <= factors[2]


def test_nls_experiment_report():
    rep = nls_small_data_experiment(2, Fraction(-1, 10), 1e-3, seeds=[0, 1], T=12.0)
    assert rep.all_converged
    assert rep.max_contraction <= 0.5
    assert rep.max_mass_drift <= 1e-4
    mus = {r["mu"] for r in rep.runs}
    assert mus == {1, -1}  # defocusing and focusing both scatter at small data
    for r in rep.runs:
        assert r["max_tail_deviation"] <= 1e-2 * 1e-3
        assert r["bound_constant"] < 5.0
    # a-priori constant stable across seeds within a factor 2
    consts = [r["bound_constant"] for r in rep.runs]
    assert max(consts) / min(consts) <= 2.0
    with pytest.raises(OutOfRangeS):
        nls_small_data_experiment(2, -0.5, 1e-3, seeds=[0])


def test_nls_endpoint_regularity_runs():
    rep = nls_small_data_experiment(2, Fraction(-1, 5), 1e-3, seeds=[0], T=8.0)
    assert rep.all_converged


def test_nlw_experiment():
    rep = nlw_small_data_experiment(2, Fraction(3, 10), 1e-3, seeds=[0, 1], T=12.0)
    assert rep.all_converged and rep.max_contraction <= 0.5
    assert rep.params["case"] == "1"
    for r in rep.runs:
        assert r["tail_decreasing"]
    # n = 3 at s_w = 0.2 > 1/(2n): symmetric-pair regime
    rep3 = nlw_small_data_experiment(3, Fraction(1, 5), 1e-3, seeds=[0], T=8.0)
    assert rep3.all_converged and rep3.params["case"] == "1"
    # below-threshold case for n = 3 exercises the free-parameter recipe
    rep2b = nlw_small_data_experiment(3, Fraction(3, 20), 1e-3, seeds=[0], T=8.0)
    assert rep2b.all_converged and rep2b.params["case"] == "2b"
    with pytest.raises(OutOfRangeS):
        nlw_small_data_experiment(2, 0.05, 1e-3, seeds=[0])


def _nlw_problem(seed=0, delta=1e-3, real_valued=True, mu=1):
    pairs = choose_pairs_nlw(2, Fraction(3, 10))
    rng = np.random.default_rng(seed)
    d0 = random_band_profile(2, rng, s_norm=0.3, target=delta / 2.0,
                             real_valued=real_valued)
    d1 = random_band_profile(2, rng, s_norm=-0.7, target=delta / 2.0,
                             real_valued=True)
    return NonlinearProblem("nlw", 2, float(pairs.p), mu=mu, data=d0, data_velocity=d1), pairs


def test_one_iteration_solve_reports_its_contraction():
    # small NLW data converge after one iteration; the contraction still
    # counts the first ratio ||a1 - a0|| / ||a0 - 0||
    prob, pairs = _nlw_problem()
    _, trace = picard_solve(prob, pairs, 4.0)
    assert trace.converged and len(trace.diff_norms) == 1
    assert trace.contraction_factor == trace.diff_norms[0] / trace.iterate_norms[0] > 0.0


def test_nlw_linear_matches_dense_evolve():
    # at scale 0 the solver's field is the free wave cos(ts) h0 + sin(ts)/s h1,
    # i.e. Re e^{its}(h0 - i h1/s), which evolve computes by dense quadrature
    prob, pairs = _nlw_problem(mu=0)
    fld, trace = picard_solve(prob, pairs, 8.0)
    assert trace.converged and trace.mass_drift == 0.0
    assert not np.any(fld.values.imag)
    d0, d1 = prob.data, prob.data_velocity

    def fn(s):
        return d0.fn(s) - 1j * d1.fn(s) / s

    combined = RadialProfile(d0.grid, fn(d0.grid.nodes), 2, fn=fn)
    step = max(fld.grid.t_nodes.size // 8, 1)
    ref = evolve(get_symbol("wave"), combined, None,
                 PhysicalGrid(fld.grid.r_nodes, fld.grid.t_nodes[::step])).values.real
    assert np.max(np.abs(fld.values[::step] - ref)) / np.max(np.abs(ref)) <= 1e-8
    # the free pullback of a linear solution does not move
    diag = scattering_state(fld, 0.3)
    assert max(diag.deviation) <= 1e-12 * 1e-3


def test_nlw_energy_conserved():
    # E = 1/2 ||a||^2 - mu/(p+2) ||u||_{p+2}^{p+2} with a = u_t + i s u; the
    # kinetic part alone moves by 3e-6 here, a sign slip in the forcing by 6e-6
    prob, pairs = _nlw_problem(delta=0.3)
    grid = build_solver_grid(2, (0.5, 2.0), prob.p, 8.0, prob.generator_symbol(), real_field=True)
    fld, trace = picard_solve(prob, pairs, 8.0, grid=grid)
    assert trace.converged
    fgrid, a = fld.solver_grid.freq, fld.coeff
    om = sphere_area(2)
    kin = 0.5 * om * np.sum(fgrid.weights * np.abs(a) ** 2 * fgrid.nodes, axis=1)
    pot = om * prob.mu / (prob.p + 2.0) * np.sum(
        grid.anal_weights * np.abs(fld.values) ** (prob.p + 2.0), axis=1)
    energy = kin - pot
    assert np.ptp(energy) / energy[0] <= 1e-8


def test_nlw_complex_data_rejected():
    prob, pairs = _nlw_problem(real_valued=False)
    with pytest.raises(DomainError):
        picard_solve(prob, pairs, 4.0)
    swapped = NonlinearProblem("nlw", 2, prob.p, mu=1, data=prob.data_velocity,
                               data_velocity=prob.data)
    with pytest.raises(DomainError):
        picard_solve(swapped, pairs, 4.0)


def test_fnls_energy_is_conserved():
    # the reported energy is the Hamiltonian kin - 2 mu/(p+2) pot, which the
    # time panels conserve to rounding; the factor mu/(p+2) read 1.3e-8, the
    # potential term dispersing
    rep = fnls_experiment(2, 1.5, 1.5, 0.0, 1e-3, seeds=[0], T=4.0)
    assert rep.runs[0]["energy_drift"] <= 1e-12, rep.runs[0]["energy_drift"]


def test_fnls_experiment_conservation():
    rep = fnls_experiment(2, 1.5, 1.5, 0.0, 1e-3, seeds=[0, 1], T=12.0)
    assert rep.all_converged
    assert rep.max_mass_drift <= 1e-6
    for r in rep.runs:
        assert r["energy_drift"] <= 1e-4
        assert r["energy_positive"]  # defocusing default
    with pytest.raises(OutOfRangeSigma):
        fnls_experiment(2, 1.2, 1.5, 0.0, 1e-3, seeds=[0])  # sigma < 2n/(2n-1)
    with pytest.raises(OutOfRangeSigma):
        fnls_experiment(2, 1.5, 1.0, 0.0, 1e-3, seeds=[0])  # p below mass-critical


def test_solver_range_rules():
    # each experiment's range rule is one function, also called by `rsl --validate-only`
    assert check_nls_range(2, -0.2) == Fraction(-1, 5)
    assert check_nls_range(2, Fraction(-1, 10)) == Fraction(-1, 10)
    with pytest.raises(OutOfRangeS):
        check_nls_range(2, Fraction(-1, 4))
    check_nlw_range(2, Fraction(3, 10))
    for s_w in (s0(2) + 5e-13, 0.5):
        with pytest.raises(OutOfRangeS):
            check_nlw_range(2, s_w)
    check_fnls_range(2, 4 / 3, 4 / 3)
    with pytest.raises(OutOfRangeSigma):
        check_fnls_range(2, 2.0, 2.0)


def test_mass_drift_improves_under_time_refinement():
    # twice the time panels improve the (already tiny) drift: Lobatto IIIA
    # collocation does not conserve the mass exactly, and at delta = 0.3,
    # T = 12 its drift reads 6.4e-12 on the solver's 6-rad panels and 2.8e-14
    # on twice as many.  The coarse drift stands well above the rounding
    # floor (at T = 8 both read about 2e-14), so the comparison sees the
    # collocation error and not noise
    prob = _nls_problem(seed=5, delta=0.3)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    T = 12.0
    drifts = []
    for boost in (1, 2):
        grid = build_solver_grid(2, (0.5, 2.0), P_NLS, T, prob.generator_symbol(), real_field=False)
        if boost == 2:
            grid = dataclasses.replace(grid, t=lobatto_panels(T, 2 * grid.time_panels)[0])
        _, trace = picard_solve(prob, pairs, T, grid=grid, max_iter=6)
        drifts.append(trace.mass_drift)
    assert drifts[1] <= 0.1 * drifts[0], drifts


def _pulled_back(fld, omega):
    fgrid, coeff = fld.solver_grid.freq, fld.coeff
    return fgrid, np.exp(-1j * np.outer(fld.grid.t_nodes, omega)) * coeff


def test_scattering_deviation_matches_sobolev_loop():
    # the one-reduction deviations against sobolev_norm slice by slice
    prob = _nls_problem(seed=5, delta=0.3)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    fld, _ = picard_solve(prob, pairs, 4.0, max_iter=6)
    gen = prob.generator_symbol()
    diag = scattering_state(fld, -0.1)
    fgrid, pull = _pulled_back(fld, gen.phi(fld.solver_grid.freq.nodes))
    ref = np.array([sobolev_norm(RadialProfile(fgrid, row - pull[-1], 2), -0.1) for row in pull])
    assert np.max(np.abs(np.asarray(diag.deviation) - ref)) <= 1e-14 * ref.max()

    wprob, wpairs = _nlw_problem(delta=0.3)
    wfld, _ = picard_solve(wprob, wpairs, 4.0)
    wdiag = scattering_state(wfld, 0.3)
    fgrid, pull = _pulled_back(wfld, wfld.solver_grid.freq.nodes)
    u, u_t = pull.imag / fgrid.nodes, pull.real
    wref = np.array([
        sobolev_norm(RadialProfile(fgrid, u[i] - u[-1], 2), 0.3)
        + sobolev_norm(RadialProfile(fgrid, u_t[i] - u_t[-1], 2), -0.7)
        for i in range(u.shape[0])
    ])
    assert np.max(np.abs(np.asarray(wdiag.deviation) - wref)) <= 1e-14 * wref.max()

    # a non-finite trajectory is still refused
    for field, s in ((fld, -0.1), (wfld, 0.3)):
        bad = field.coeff.copy()
        bad[3, 7] = np.nan
        with pytest.raises(ValueError):
            scattering_state(dataclasses.replace(field, coeff=bad), s)


def _solve_record(prob, pairs, grid):
    fld, trace = picard_solve(prob, pairs, 8.0, grid=grid, max_iter=6)
    diag = scattering_state(fld, -0.1)
    return fld, trace, diag


def test_seeds_on_one_grid_match_fresh_grids():
    # the free-group table is built once per grid and generator and serves
    # every seed: two seeds on one grid equal each seed on a grid of its own
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    probs = [_nls_problem(seed=seed, delta=0.3, mu=mu) for seed, mu in ((5, 1), (6, -1))]
    shared = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, probs[0].generator_symbol(),
                               real_field=False)
    on_shared = [_solve_record(prob, pairs, shared) for prob in probs]
    omega = probs[0].generator_symbol().phi(shared.freq.nodes)
    assert shared.free_group(omega) is shared.free_group(omega)
    assert not shared.free_group(omega).flags.writeable
    assert shared.duhamel_table(omega) is shared.duhamel_table(omega)
    assert not any(part.flags.writeable for part in shared.duhamel_table(omega))
    for prob, (fld, trace, diag) in zip(probs, on_shared):
        fresh = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, prob.generator_symbol(),
                                  real_field=False)
        ref_fld, ref_trace, ref_diag = _solve_record(prob, pairs, fresh)
        assert trace == ref_trace
        assert np.array_equal(fld.values, ref_fld.values)
        assert np.array_equal(fld.coeff, ref_fld.coeff)
        assert diag.deviation == ref_diag.deviation
        assert np.array_equal(diag.u_plus.values, ref_diag.u_plus.values)


def test_table_does_not_outlive_its_time_grid():
    # a grid made by dataclasses.replace with another t (twice the panels)
    # builds its own free-group and Duhamel tables, even after a solve
    # filled the original grid's
    prob = _nls_problem(seed=5, delta=0.3)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))

    def grid():
        return build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, prob.generator_symbol(),
                                 real_field=False)

    coarse = grid()
    t_fine = lobatto_panels(8.0, 2 * coarse.time_panels)[0]
    _solve_record(prob, pairs, coarse)
    fld, trace, diag = _solve_record(prob, pairs, dataclasses.replace(coarse, t=t_fine))
    ref_fld, ref_trace, ref_diag = _solve_record(prob, pairs, dataclasses.replace(grid(), t=t_fine))
    assert trace == ref_trace
    assert np.array_equal(fld.values, ref_fld.values)
    assert np.array_equal(fld.coeff, ref_fld.coeff)
    assert diag.deviation == ref_diag.deviation


def test_band_limited_first_synthesis():
    # the first iterate is synthesized on the data's columns only; at mu = 0
    # that is the whole field, against the synthesis of every column.  The
    # shorter contraction sums in another order: 1.5e-15 of the maximum at
    # most over seeds 0, 2, 5 and T = 8, 16 (bitwise at T = 4)
    prob = _nls_problem(seed=2, mu=0)
    pairs = choose_pairs_nls(2, Fraction(-1, 10), Fraction(-1, 10))
    grid = build_solver_grid(2, (0.5, 2.0), P_NLS, 8.0, prob.generator_symbol(), real_field=False)
    fld, _ = picard_solve(prob, pairs, 8.0, grid=grid)
    s = grid.freq.nodes
    h0 = prob.data.at(s)
    assert 0 < np.count_nonzero(h0) < 0.5 * s.size
    full = grid.to_physical(np.exp(1j * np.outer(grid.t, prob.generator_symbol().phi(s))) * h0)
    assert np.max(np.abs(fld.values - full)) <= 4e-15 * np.max(np.abs(full))


def test_nlw_field_stays_real():
    # the wave field u = Im(a) / s is real and is kept as float64, not as a
    # complex copy twice its size: the last synthesis, bit for bit
    prob, pairs = _nlw_problem(delta=0.3)
    T = 4.0
    fld, trace = picard_solve(prob, pairs, T)
    assert trace.converged and len(trace.diff_norms) > 0
    assert fld.values.dtype == np.float64
    s = fld.solver_grid.freq.nodes
    assert np.array_equal(fld.values, fld.solver_grid.to_physical(fld.coeff.imag / s))
    # and its solver grid keeps 4-rad time panels, which its norm needs;
    # build_solver_grid has no default field type to fall back on
    rate = (prob.p + 1.0) * prob.generator_symbol().sup_phi(*DATA_BAND)
    assert trace.meta["time_panels"] == math.ceil(T * rate / 4.0)
    with pytest.raises(TypeError, match="real_field"):
        build_solver_grid(2, DATA_BAND, prob.p, T, prob.generator_symbol())


@pytest.mark.parametrize("experiment, args", [
    (nls_small_data_experiment, (2, Fraction(-1, 10), 1e-3)),
    (nlw_small_data_experiment, (2, Fraction(3, 10), 1e-3)),
    (fnls_experiment, (2, 1.5, 1.5, 0.0, 1e-3)),
], ids=["nls", "nlw", "fnls"])
def test_experiment_builds_one_grid(monkeypatch, experiment, args):
    # every seed after the first is solved on the first solve's grid
    build = nonlinear.build_solver_grid
    calls = []

    def counting(*a, **kw):
        calls.append(a)
        return build(*a, **kw)

    monkeypatch.setattr(nonlinear, "build_solver_grid", counting)
    for seeds in ([0], [0, 1, 2]):
        calls.clear()
        rep = experiment(*args, seeds=seeds, T=2.0)
        assert len(calls) == 1 and len(rep.runs) == len(seeds)
