"""Resonance recovery on the collider-like benchmark.

Generates a smooth four-feature dijet background with a narrow resonance
injected at a known pair mass, fits the conditional flow, scores, and walks
the discovery procedure: scan the conditional axis for the most
anomalous mass bin, then characterize the events passing the tightest usable
alpha cut inside that window.

This is the expensive benchmark; with the defaults below it takes a few
minutes.  Run:  python3 scripts/resonance_benchmark.py [--n-background 100000]
"""

import argparse
import time

import numpy as np

from overdensity import (
    FitConfig,
    LhcLikeConfig,
    Resonance,
    ScoreConfig,
    fit_gis,
    generate_lhc_like,
    scan_profile,
    score_events,
    summarize,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-background", type=int, default=100_000)
    ap.add_argument("--n-signal", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=8)
    ap.add_argument("--bins", type=int, default=40)
    args = ap.parse_args()

    resonance = Resonance()
    dataset = generate_lhc_like(
        config=LhcLikeConfig(n_background=args.n_background,
                             n_signal=args.n_signal, resonance=resonance),
        seed=args.seed)
    print(f"generated {dataset.n_events} events, resonance at "
          f"m_jj={resonance.mass}, m_j1={resonance.m_j1}, dm={resonance.dm}")

    t0 = time.perf_counter()
    model = fit_gis(dataset.features, dataset.conditionals,
                    FitConfig(n_iterations=args.iterations,
                              n_conditional_bins=args.bins,
                              rng_seed=args.seed))
    print(f"fit took {time.perf_counter() - t0:.1f}s")

    report = score_events(model, dataset.event_arrays(),
                          ScoreConfig(sigma=250.0, thresholds=(1.5, 2.5, 5.0)))

    # Step 1: which 100 GeV slice of the conditional axis looks most anomalous?
    rows = scan_profile(report.alphas, dataset.conditionals, bin_width=100.0)
    peak = max((r for r in rows if r.count), key=lambda r: r.alpha_max)
    print(f"hottest mass bin: [{peak.m_lo:.0f}, {peak.m_hi:.0f}) "
          f"alpha_max={peak.alpha_max:.1f}")

    # Step 2: tightest cut that still keeps a usable sample in that window.
    center = 0.5 * (peak.m_lo + peak.m_hi)
    window = (center - 150.0, center + 150.0)
    in_window = (dataset.conditionals > window[0]) & (dataset.conditionals < window[1])
    for thr in sorted(report.thresholds, reverse=True):
        sel = report.selections[thr]
        sel = sel[in_window[sel]]
        if sel.size >= 50:
            break
    else:
        order = np.argsort(report.alphas)[::-1]
        sel = order[in_window[order]][:100]
        thr = None
    label = f"alpha > {thr:g}" if thr is not None else "top-100 alpha"
    summary = summarize(dataset.event_arrays(), sel,
                        [dataset.conditional_name, *dataset.feature_names])
    is_signal = dataset.labels == 1
    print(f"{label} in window ({window[0]:.0f}, {window[1]:.0f}): "
          f"{sel.size} events, purity {np.mean(is_signal[sel]):.2f}")
    truth = {"m_jj": resonance.mass, "m_j1": resonance.m_j1, "dm": resonance.dm}
    for st in summary.stats:
        line = f"  {st.name} = {st.mean:8.2f} ± {st.sem:.2f}"
        if st.name in truth:
            line += f"   (truth {truth[st.name]:.0f})"
        print(line)


if __name__ == "__main__":
    main()
