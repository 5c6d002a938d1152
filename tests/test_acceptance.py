"""Acceptance battery: one test and one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in the captured output of failing tests.
"""
import io
import time
import warnings
from contextlib import redirect_stdout

import numpy as np

import fermijunction as fj
from fermijunction.cli import main as cli_main
from fermijunction.thermo import ness_leading_order


def _conclude(tag, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _weak_grid_reports():
    """441-point bias/temperature grid at weak tunneling."""
    params = fj.SystemParams(delta=0.005, gamma1=0.002, gamma2=0.002)
    reports = []
    for t2 in np.linspace(0.2, 1.2, 21):
        for mu in np.linspace(0.0, 2.0, 21):
            baths = fj.BathParams(t1=0.2, t2=float(t2), mu1=float(mu), mu2=float(mu))
            result = fj.solve_ness(params, baths)
            reports.append(fj.transport_report(result, params, baths))
    return reports


def _bias_sweep_states():
    """21-point chemical-bias sweep at weak tunneling, cold baths."""
    params = fj.SystemParams(delta=0.005, gamma1=0.002, gamma2=0.002)
    out = []
    for dmu in np.linspace(0.0, 1.0, 21):
        baths = fj.BathParams(t1=0.1, t2=0.1, mu1=0.5 + float(dmu), mu2=0.5)
        result = fj.solve_ness(params, baths)
        rep = fj.transport_report(result, params, baths)
        out.append((float(dmu), result, rep))
    return params, out


def test_criterion_1_equilibrium_gibbs_recovery():
    start = time.perf_counter()
    params = fj.SystemParams(delta=0.005, gamma1=2e-4, gamma2=2e-4)
    baths = fj.BathParams(t1=0.2, t2=0.2, mu1=0.5, mu2=0.5)
    result = fj.solve_ness(params, baths)
    gibbs = fj.grand_canonical_state(result.basis, 0.2, 0.5)
    diag_dev = float(
        np.max(np.abs(np.diag(result.rho) - np.diag(gibbs)) / np.diag(gibbs).real)
    )
    coh = fj.coherence(result.rho)
    elapsed = time.perf_counter() - start
    ok = diag_dev < 1e-4 and coh < 1e-8 and elapsed < 1.0
    _conclude(
        "criterion-1 equilibrium-recovery",
        ok,
        f"diag rel dev {diag_dev:.3e} (<1e-4), coherence {coh:.3e} (<1e-8), "
        f"{elapsed:.2f}s (<1s)",
    )


def test_criterion_2_leading_order_scaling():
    start = time.perf_counter()
    gammas = (0.002, 0.001, 0.0005)
    devs = []
    for gamma in gammas:
        params = fj.SystemParams(delta=0.005, gamma1=gamma, gamma2=gamma)
        worst = 0.0
        for d_t in np.linspace(0.0, 1.0, 5):
            for d_mu in np.linspace(0.0, 1.0, 5):
                baths = fj.BathParams(
                    t1=0.2, t2=0.2 + float(d_t), mu1=0.5 + float(d_mu), mu2=0.5
                )
                result = fj.solve_ness(params, baths)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # largest gamma sits at g = 0.4
                    ref = ness_leading_order(result.basis, baths, params)
                worst = max(worst, float(np.abs(result.rho - ref).max()))
        devs.append(worst)
    slope = float(np.polyfit(np.log(gammas), np.log(devs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = 1.7 <= slope <= 2.3 and elapsed < 10.0
    _conclude(
        "criterion-2 leading-order-scaling",
        ok,
        f"log-log slope {slope:.3f} (2 +- 0.3), {elapsed:.2f}s (<10s)",
    )


def test_criterion_3_current_conservation():
    start = time.perf_counter()
    worst = 0.0
    for delta in (0.005, 0.05):
        params = fj.SystemParams(delta=delta, gamma1=0.002, gamma2=0.002)
        for t2 in np.linspace(0.2, 1.2, 21):
            for mu in np.linspace(0.0, 2.0, 21):
                baths = fj.BathParams(
                    t1=0.2, t2=float(t2), mu1=float(mu), mu2=float(mu)
                )
                result = fj.solve_ness(params, baths)
                rep = fj.transport_report(result, params, baths)
                worst = max(worst, abs(rep.i1 + rep.i2), abs(rep.j1 + rep.j2))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 60.0
    _conclude(
        "criterion-3 current-conservation",
        ok,
        f"max |I1+I2|,|J1+J2| = {worst:.3e} (<1e-10) over 882 points, "
        f"{elapsed:.2f}s (<60s)",
    )


def test_criterion_4_epr_positivity():
    start = time.perf_counter()
    min_numeric = min(rep.epr for rep in _weak_grid_reports())
    rng = np.random.default_rng(20240814)
    min_leading = np.inf
    for _ in range(10_000):
        baths = fj.BathParams(
            t1=float(rng.uniform(0.05, 1.0)),
            t2=float(rng.uniform(0.05, 1.0)),
            mu1=float(rng.uniform(0.0, 2.0)),
            mu2=float(rng.uniform(0.0, 2.0)),
        )
        value = fj.epr_leading_order(baths, float(rng.uniform(0.5, 2.0)))
        min_leading = min(min_leading, value)
    elapsed = time.perf_counter() - start
    ok = min_numeric >= -1e-10 and min_leading >= 0.0 and elapsed < 30.0
    _conclude(
        "criterion-4 epr-positivity",
        ok,
        f"min numeric EPR {min_numeric:.3e} (>=-1e-10), "
        f"min closed-form EPR {min_leading:.3e} (>=0) over 10000 draws, "
        f"{elapsed:.2f}s (<30s)",
    )


def test_criterion_5_qfi_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst_pair = 0.0
    for _ in range(100):
        delta = float(np.exp(rng.uniform(np.log(3e-3), np.log(0.1))))
        gamma = float(np.exp(rng.uniform(np.log(5e-4), np.log(5e-3))))
        t1 = float(rng.uniform(0.1, 0.5))
        params = fj.SystemParams(delta=delta, gamma1=gamma, gamma2=gamma)
        baths = fj.BathParams(
            t1=t1,
            t2=t1 + float(rng.uniform(0.0, 0.7)),
            mu1=float(rng.uniform(0.1, 1.5)),
            mu2=float(rng.uniform(0.1, 1.5)),
        )
        f_spec = fj.qfi_spectral(params, baths).f_total
        f_fid = fj.qfi_fidelity_oracle(params, baths)
        worst_pair = max(worst_pair, abs(f_spec - f_fid) / abs(f_spec))
    worst_eq = 0.0
    for t in (0.1, 0.2, 0.5):
        for mu in (0.3, 0.5, 1.5):
            for delta in (0.005, 0.01):
                gamma = delta / 20.0
                params = fj.SystemParams(delta=delta, gamma1=gamma, gamma2=gamma)
                baths = fj.BathParams(t1=t, t2=t, mu1=mu, mu2=mu)
                approx = fj.qfi_equilibrium_approx(params, t, mu)
                f_spec = fj.qfi_spectral(params, baths).f_total
                f_fid = fj.qfi_fidelity_oracle(params, baths)
                worst_eq = max(
                    worst_eq,
                    abs(f_spec - approx) / approx,
                    abs(f_fid - approx) / approx,
                )
    elapsed = time.perf_counter() - start
    ok = worst_pair < 1e-3 and worst_eq < 1e-2 and elapsed < 120.0
    _conclude(
        "criterion-5 qfi-cross-validation",
        ok,
        f"max spectral/fidelity rel dev {worst_pair:.3e} (<1e-3) over 100 points, "
        f"max dev from thermal closed form {worst_eq:.3e} (<1e-2), "
        f"{elapsed:.2f}s (<120s)",
    )


def test_criterion_6_weak_tunneling_enhancement():
    start = time.perf_counter()
    params, sweep = _bias_sweep_states()
    rows = []
    for dmu, result, rep in sweep:
        baths = fj.BathParams(t1=0.1, t2=0.1, mu1=0.5 + dmu, mu2=0.5)
        q = fj.qfi_spectral(params, baths)
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
    q_eq = fj.qfi_spectral(params, equal).f_total
    q_hot = fj.qfi_spectral(params, biased).f_total
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
        d = fj.discord(result.rho)
        quantities.append((rep.epr, d.qmi, d.discord, fj.concurrence(result.rho)))
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
            site = fj.site_basis_state(result.rho, result.basis)
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
        opt = fj.discord(rho)
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
    buf1, buf2 = io.StringIO(), io.StringIO()
    with redirect_stdout(buf1):
        code1 = cli_main(["verify"])
    with redirect_stdout(buf2):
        code2 = cli_main(["verify"])
    verify_ok = code1 == 0 and code2 == 0 and buf1.getvalue() == buf2.getvalue()

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
    sweep_ok = serial_a == serial_b
    elapsed = time.perf_counter() - start
    ok = verify_ok and sweep_ok
    _conclude(
        "criterion-10 determinism",
        ok,
        f"verify bytes identical: {verify_ok}, sweep bytes identical "
        f"(repeat): {sweep_ok}, {elapsed:.2f}s",
    )
