"""Pullback approximation of one attractor section.

Ensembles start ever deeper in the past from the tempered absorbing
family and are transported to the anchor; the section has converged
when consecutive endpoint sets stop moving in Hausdorff distance.
Horizons here are shortened so the script runs in seconds; the
acceptance suite runs the full ladder.
"""

from stochrd import (
    AbsorbingSpec,
    Grid,
    TemperedFamilySpec,
    absorbing_radius,
    canonical_cubic,
    deterministic_radius,
    norms,
    periodic_bump_forcing,
    pullback_ensemble,
    sample_two_sided_path,
    uniform_radius,
)


def main():
    grid = Grid(dim=1, half_width=8.0, n=257)
    spec = canonical_cubic(alpha=0.5, forcing=periodic_bump_forcing(0.05))
    absorbing = AbsorbingSpec(c_abs=2.0)
    family = TemperedFamilySpec("absorbing-ball", factor=1.0)
    path = sample_two_sided_path(seed=7, s_max=52.0, grid_step=1e-3)

    print("absorbing radii at the anchor:")
    print(f"  deterministic M_0 : {deterministic_radius(0.0, spec, absorbing, grid):.4f}")
    for alpha in (0.25, 0.5, 1.0):
        m = absorbing_radius(0.0, path, alpha, spec, absorbing, grid)
        print(f"  pathwise M_{alpha:<4g}   : {m:.4f}")
    print(f"  envelope R        : {uniform_radius(0.0, path, spec, absorbing, grid):.4f}")

    approx = pullback_ensemble(
        tau=0.0, path=path, alpha=0.5, spec=spec, grid=grid,
        horizons=[2.0, 5.0, 10.0], m_samples=4, family=family,
        absorbing=absorbing, dt=1e-3, eps_att=1e-3, seed=7,
    )
    print("\npullback ladder (deeper starts, same anchor):")
    for t, d in zip(approx.horizons[1:], approx.distances):
        print(f"  horizon {t:5.1f}: set moved {d:.3e}")
    state = "converged" if approx.converged else "not yet converged"
    print(f"section {state} with {len(approx.endpoints)} distinct endpoints")
    print(f"largest endpoint norm: "
          f"{max(norms(f).l2 for f in approx.endpoints):.4f}")
    print(f"tail mass beyond |x| = 4: {approx.max_tail(4.0):.3e}")


if __name__ == "__main__":
    main()
