"""Acceptance battery: one test and one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured output of failing tests.
"""
import time

import numpy as np

import fermijunction as fj
from fermijunction import verify
from fermijunction.observables import sector_vector


def _conclude(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _bias_sweep_states():
    """21-point chemical-bias sweep at weak tunneling, cold baths."""
    params = fj.SystemParams(delta=0.005, gamma1=0.002, gamma2=0.002)
    out = []
    for dmu in np.linspace(0.0, 1.0, 21):
        baths = fj.BathParams(t1=0.1, t2=0.1, mu1=0.5 + float(dmu), mu2=0.5)
        result = fj.solve_ness(params, baths)
        rep = fj.transport_report(result)
        out.append((float(dmu), result, rep))
    return params, out


def _run_check(criterion, name, budget):
    """Criteria 1-5 are the analytic-limit checks of ``fermijunction verify``."""
    start = time.perf_counter()
    ok, detail = dict(verify.CHECKS)[name]()
    elapsed = time.perf_counter() - start
    _conclude(
        f"criterion-{criterion} {name}",
        ok and elapsed < budget,
        f"{detail}, {elapsed:.2f}s (<{budget:g}s)",
    )


def test_criterion_1_equilibrium_gibbs_recovery():
    _run_check(1, "equilibrium-gibbs", 1.0)


def test_criterion_2_leading_order_scaling():
    _run_check(2, "leading-order-slope", 10.0)


def test_criterion_3_current_conservation():
    _run_check(3, "current-conservation", 60.0)


def test_criterion_4_epr_positivity():
    _run_check(4, "epr-positivity", 30.0)


def test_criterion_5_qfi_cross_validation():
    _run_check(5, "qfi-cross-routes", 120.0)


def test_criterion_6_weak_tunneling_enhancement():
    start = time.perf_counter()
    params, sweep = _bias_sweep_states()
    rows = []
    for dmu, result, rep in sweep:
        baths = fj.BathParams(t1=0.1, t2=0.1, mu1=0.5 + dmu, mu2=0.5)
        q = fj.qfi_spectral(fj.solve_ness(params, baths))
        rows.append((rep.epr, q.f_total, q.f_n, dmu))
    rows.sort(key=lambda r: r[0])
    qfis = [r[1] for r in rows]
    monotone = all(b >= a - 1e-9 for a, b in zip(qfis, qfis[1:]))
    fn_positive = all(r[2] > 0.0 for r in rows if r[3] > 0.0)
    elapsed = time.perf_counter() - start
    ok = monotone and fn_positive
    _conclude(
        "criterion-6 weak-tunneling-enhancement",
        ok,
        f"QFI nondecreasing along EPR order: {monotone} "
        f"(range {qfis[0]:.3g} -> {qfis[-1]:.3g}), "
        f"coherence part positive off equilibrium: {fn_positive}, {elapsed:.2f}s",
    )


def test_criterion_7_strong_tunneling_suppression():
    start = time.perf_counter()
    params = fj.SystemParams(delta=0.05, gamma1=0.002, gamma2=0.002)
    equal = fj.BathParams(t1=0.1, t2=0.1, mu1=0.5, mu2=0.5)
    biased = fj.BathParams(t1=0.1, t2=1.1, mu1=0.5, mu2=0.5)
    q_eq = fj.qfi_spectral(fj.solve_ness(params, equal)).f_total
    q_hot = fj.qfi_spectral(fj.solve_ness(params, biased)).f_total
    elapsed = time.perf_counter() - start
    ok = q_hot < q_eq
    _conclude(
        "criterion-7 strong-tunneling-suppression",
        ok,
        f"QFI {q_eq:.4f} at dT=0 vs {q_hot:.4f} at dT=1 (must drop), "
        f"{elapsed:.2f}s",
    )


def test_criterion_8_correlation_structure():
    start = time.perf_counter()
    _, sweep = _bias_sweep_states()
    quantities = []
    for dmu, result, rep in sweep:
        d = fj.discord(result.v)
        quantities.append((rep.epr, d.qmi, d.discord, fj.concurrence(result.v)))
    zero_epr = min(quantities, key=lambda r: r[0])
    max_epr = max(quantities, key=lambda r: r[0])
    zero_ok = abs(zero_epr[1]) < 1e-9 and abs(zero_epr[2]) < 1e-9
    grow_ok = max_epr[1] > 0.0 and max_epr[2] > 0.0
    conc_weak = max(r[3] for r in quantities)

    strong = fj.SystemParams(delta=0.1, gamma1=0.002, gamma2=0.002)
    site_best = 0.0
    for mu in (0.0, 0.2, 0.4, 0.6):
        for dmu in np.linspace(0.0, 1.0, 11):
            baths = fj.BathParams(t1=0.1, t2=0.1, mu1=mu + float(dmu), mu2=mu)
            result = fj.solve_ness(strong, baths)
            site = fj.site_basis_state(result.v, result.basis)
            site_best = max(site_best, fj.concurrence(site))
    elapsed = time.perf_counter() - start
    ok = zero_ok and grow_ok and conc_weak == 0.0 and site_best > 1e-4
    _conclude(
        "criterion-8 correlation-structure",
        ok,
        f"QMI/discord at zero EPR {zero_epr[1]:.1e}/{zero_epr[2]:.1e} (<1e-9), "
        f"at max EPR {max_epr[1]:.3g}/{max_epr[2]:.3g} (>0), "
        f"weak-tunneling concurrence max {conc_weak:.1e} (=0), "
        f"site-basis concurrence up to {site_best:.3e} (>1e-4) at strong "
        f"tunneling, {elapsed:.2f}s",
    )


def test_criterion_9_discord_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_gap = -np.inf
    worst_abs = 0.0
    for _ in range(20):
        diag = rng.dirichlet(np.ones(4))
        rho = np.diag(diag).astype(complex)
        bound = np.sqrt(diag[1] * diag[2])
        coh = rng.uniform(0.0, bound) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho[1, 2], rho[2, 1] = coh, np.conj(coh)
        opt = fj.discord(sector_vector(rho))
        ref = fj.discord_brute_force(rho, resolution=400)
        # the grid can only underestimate the classical correlation, so
        # the optimizer must reach at least the grid value (within 1e-6)
        worst_gap = max(worst_gap, ref.classical_corr - opt.classical_corr)
        worst_abs = max(worst_abs, abs(ref.discord - opt.discord))
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-6 and elapsed < 60.0
    _conclude(
        "criterion-9 discord-oracle",
        ok,
        f"max (grid - optimizer) classical corr {worst_gap:.3e} (<1e-6), "
        f"max |discord difference| {worst_abs:.3e}, 20 states at 400x400, "
        f"{elapsed:.2f}s (<60s)",
    )


def test_criterion_10_determinism():
    start = time.perf_counter()
    spec = fj.SweepSpec(
        fixed={
            "omega1": 1.0,
            "omega2": 1.0,
            "delta": 0.005,
            "gamma1": 0.002,
            "gamma2": 0.002,
            "t1": 0.1,
            "t2": 0.1,
            "mu2": 0.5,
        },
        axes=(fj.Axis("dmu", 0.0, 1.0, 5),),
        observables=("thermo", "correlations", "discord", "qfi"),
    )
    serial_a = fj.emit(fj.run_sweep(spec))
    serial_b = fj.emit(fj.run_sweep(spec))
    ok = serial_a == serial_b
    elapsed = time.perf_counter() - start
    _conclude(
        "criterion-10 determinism",
        ok,
        f"sweep bytes identical (repeat): {ok}, {elapsed:.2f}s",
    )
