//! Property-based tests for the coverage algorithms and theory.
//!
//! The crown jewels are the implication-chain properties on random
//! networks: sufficient condition ⇒ full-view coverage ⇒ necessary
//! condition ⇒ `⌈π/θ⌉`-coverage, and the agreement of the two independent
//! full-view algorithms.

use fullview_core::{
    analyze_point, csa_necessary, csa_sufficient, implied_k, is_direction_safe,
    is_full_view_covered, is_full_view_covered_arcset, is_k_covered, meets_necessary_condition,
    meets_sufficient_condition, prob_point_fails_necessary, prob_point_fails_sufficient,
    prob_point_meets_necessary_poisson, prob_point_meets_sufficient_poisson, q_closed_form,
    q_series, safe_directions, Condition, EffectiveAngle,
};
use fullview_geom::{Angle, Point, Torus};
use fullview_model::{Camera, CameraNetwork, GroupId, NetworkProfile, SensorSpec};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

fn camera_strategy() -> impl Strategy<Value = Camera> {
    (0.0..1.0f64, 0.0..1.0f64, 0.0..TAU, 0.02..0.45f64, 0.1..TAU).prop_map(
        |(x, y, facing, r, phi)| {
            Camera::new(
                Point::new(x, y),
                Angle::new(facing),
                SensorSpec::new(r, phi).unwrap(),
                GroupId(0),
            )
        },
    )
}

fn network_strategy(max: usize) -> impl Strategy<Value = CameraNetwork> {
    prop::collection::vec(camera_strategy(), 0..max)
        .prop_map(|cams| CameraNetwork::new(Torus::unit(), cams))
}

fn theta_strategy() -> impl Strategy<Value = EffectiveAngle> {
    (0.05..=1.0f64).prop_map(|f| EffectiveAngle::new(f * PI).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---------- algorithm agreement ----------

    #[test]
    fn gap_and_arcset_algorithms_agree(
        net in network_strategy(40),
        theta in theta_strategy(),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        let p = Point::new(px, py);
        prop_assert_eq!(
            is_full_view_covered(&net, p, theta),
            is_full_view_covered_arcset(&net, p, theta),
            "algorithms disagree at {} with {}", p, theta
        );
    }

    #[test]
    fn full_view_iff_every_probed_direction_safe(
        net in network_strategy(30),
        theta in theta_strategy(),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        let p = Point::new(px, py);
        let covered = is_full_view_covered(&net, p, theta);
        if covered {
            // Probe a fan of directions: all must be safe.
            for i in 0..24 {
                let d = Angle::new(i as f64 * TAU / 24.0);
                prop_assert!(
                    is_direction_safe(&net, p, theta, d),
                    "covered point has unsafe direction {d}"
                );
            }
        } else {
            // The bisector of the largest hole must be unsafe.
            let holes = fullview_core::unsafe_directions(&net, p, theta);
            prop_assert!(!holes.is_empty());
            let widest = holes
                .iter()
                .max_by(|a, b| a.width().partial_cmp(&b.width()).unwrap())
                .unwrap();
            if widest.width() > 1e-6 {
                prop_assert!(
                    !is_direction_safe(&net, p, theta, widest.bisector()),
                    "hole bisector reported safe"
                );
            }
        }
    }

    // ---------- implication chain ----------

    #[test]
    fn implication_chain_on_random_networks(
        net in network_strategy(60),
        theta in theta_strategy(),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
        start in 0.0..TAU,
    ) {
        let p = Point::new(px, py);
        let start = Angle::new(start);
        let sufficient = meets_sufficient_condition(&net, p, theta, start);
        let full_view = is_full_view_covered(&net, p, theta);
        let necessary = meets_necessary_condition(&net, p, theta, start);
        let k_cov = is_k_covered(&net, p, implied_k(theta));
        if sufficient {
            prop_assert!(full_view, "sufficient ⇒ full-view violated at {p}, {theta}");
        }
        if full_view {
            prop_assert!(necessary, "full-view ⇒ necessary violated at {p}, {theta}");
            // Full-view coverage forces ⌈π/θ⌉ cameras: c gaps of ≤ 2θ each
            // must close the 2π circle. (The sector-occupancy necessary
            // condition alone does NOT imply this when the overlap sector
            // intersects sector 1 at large θ — see kcov module docs.)
            prop_assert!(k_cov, "full-view ⇒ k-coverage violated at {p}, {theta}");
        }
    }

    #[test]
    fn necessary_condition_invariant_to_start_line_when_full_view(
        net in network_strategy(40),
        theta in theta_strategy(),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
        s1 in 0.0..TAU,
        s2 in 0.0..TAU,
    ) {
        // Full-view coverage implies the necessary condition for *every*
        // start line (§III notes the construction can rotate freely).
        let p = Point::new(px, py);
        if is_full_view_covered(&net, p, theta) {
            prop_assert!(meets_necessary_condition(&net, p, theta, Angle::new(s1)));
            prop_assert!(meets_necessary_condition(&net, p, theta, Angle::new(s2)));
        }
    }

    // ---------- analyze_point consistency ----------

    #[test]
    fn analysis_counts_consistent(
        net in network_strategy(40),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        let p = Point::new(px, py);
        let a = analyze_point(&net, p);
        let direct = net.coverage_count(p);
        prop_assert_eq!(a.covering_cameras, direct);
        let dir_count = a.viewed_directions.len() + usize::from(a.has_colocated_camera);
        // Co-located cameras view no direction: `covering − directions` of
        // them, and the flag records that there is at least one.
        prop_assert!(dir_count <= a.covering_cameras || a.covering_cameras == 0);
    }

    #[test]
    fn analyze_point_into_matches_analyze_point(
        net in network_strategy(40),
        theta in theta_strategy(),
        points in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..8),
    ) {
        // One analyzer reused across all points (the hot-loop usage): the
        // borrowed view must reproduce the owned analysis exactly,
        // including derived predicates.
        let mut analyzer = fullview_core::PointAnalyzer::new();
        for (px, py) in points {
            let p = Point::new(px, py);
            let owned = analyze_point(&net, p);
            let view = analyzer.analyze_point_into(&net, p);
            prop_assert_eq!(view.is_full_view(theta), owned.is_full_view(theta));
            prop_assert_eq!(view.critical_theta(), owned.critical_theta());
            prop_assert_eq!(view.to_owned(), owned);
        }
    }

    #[test]
    fn safe_measure_bounded_by_arcs(
        net in network_strategy(30),
        theta in theta_strategy(),
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        let p = Point::new(px, py);
        let a = analyze_point(&net, p);
        let set = safe_directions(&net, p, theta);
        let bound = (a.viewed_directions.len() as f64) * theta.max_gap();
        if !a.has_colocated_camera {
            prop_assert!(set.measure() <= bound + 1e-6);
        }
        prop_assert!(set.measure() <= TAU + 1e-9);
    }

    // ---------- theory formulas ----------

    #[test]
    fn csa_gap_and_positivity(n in 3usize..2_000_000, f in 0.05..=1.0f64) {
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let sn = csa_necessary(n, theta);
        let ss = csa_sufficient(n, theta);
        prop_assert!(sn > 0.0 && sn.is_finite());
        prop_assert!(ss > sn, "s_S={ss} <= s_N={sn} at n={n}, θ={theta}");
    }

    #[test]
    fn uniform_failure_probabilities_valid_and_ordered(
        s in 1e-5..0.2f64,
        n in 10usize..5_000,
        f in 0.05..=1.0f64,
    ) {
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let profile = NetworkProfile::homogeneous(
            SensorSpec::with_sensing_area(s, PI / 2.0).unwrap(),
        );
        let pn = prob_point_fails_necessary(&profile, n, theta);
        let ps = prob_point_fails_sufficient(&profile, n, theta);
        prop_assert!((0.0..=1.0).contains(&pn));
        prop_assert!((0.0..=1.0).contains(&ps));
        prop_assert!(pn <= ps + 1e-12, "P(F_N)={pn} > P(F_S)={ps}");
    }

    #[test]
    fn poisson_probabilities_valid_and_ordered(
        s in 1e-5..0.2f64,
        density in 1.0..5_000.0f64,
        f in 0.05..=1.0f64,
    ) {
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let profile = NetworkProfile::homogeneous(
            SensorSpec::with_sensing_area(s, PI / 3.0).unwrap(),
        );
        let pn = prob_point_meets_necessary_poisson(&profile, density, theta);
        let ps = prob_point_meets_sufficient_poisson(&profile, density, theta);
        prop_assert!((0.0..=1.0).contains(&pn));
        prop_assert!((0.0..=1.0).contains(&ps));
        prop_assert!(pn + 1e-12 >= ps, "P_N={pn} < P_S={ps}");
    }

    #[test]
    fn poisson_series_approaches_closed_form(
        density in 1.0..2_000.0f64,
        r in 0.02..0.3f64,
        phi in 0.1..TAU,
        f in 0.05..=1.0f64,
    ) {
        let theta = EffectiveAngle::new(f * PI).unwrap();
        for cond in [Condition::Necessary, Condition::Sufficient] {
            let closed = q_closed_form(cond, theta, density, r, phi);
            let series = q_series(cond, theta, density, r, phi, 2000);
            prop_assert!((closed - series).abs() < 1e-6,
                "{cond:?}: closed {closed} vs series {series}");
        }
    }
}

/// Deterministic cross-check against uniform random deployments: build a
/// deployment with `fullview-deploy` and verify the Monte-Carlo fraction
/// of points meeting the necessary condition is close to eq. (2).
#[test]
fn uniform_theory_matches_monte_carlo_fraction() {
    use fullview_deploy::deploy_uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let theta = EffectiveAngle::new(PI / 4.0).unwrap();
    let n = 900;
    let profile =
        NetworkProfile::homogeneous(SensorSpec::with_sensing_area(0.012, PI / 2.0).unwrap());
    let expect_fail = prob_point_fails_necessary(&profile, n, theta);

    let mut rng = StdRng::seed_from_u64(2024);
    let mut fails = 0usize;
    let mut total = 0usize;
    for trial in 0..30 {
        let net = deploy_uniform(Torus::unit(), &profile, n, &mut rng)
            .unwrap_or_else(|e| panic!("trial {trial}: {e}"));
        for i in 0..40 {
            // Fixed probe points spread over the square.
            let p = Point::new(
                (i as f64 * 0.618_033_98) % 1.0,
                (i as f64 * 0.414_213_56) % 1.0,
            );
            total += 1;
            if !meets_necessary_condition(&net, p, theta, Angle::ZERO) {
                fails += 1;
            }
        }
    }
    let measured = fails as f64 / total as f64;
    // Binomial CI: with 1200 samples, σ ≈ sqrt(p(1-p)/1200).
    let sigma = (expect_fail * (1.0 - expect_fail) / total as f64).sqrt();
    assert!(
        (measured - expect_fail).abs() < 5.0 * sigma + 0.01,
        "measured {measured} vs theory {expect_fail} (σ={sigma})"
    );
}

// ---------- extension modules ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stevens_is_probability_and_monotone(
        n_arcs in 0usize..200,
        a in 0.0..1.5f64,
    ) {
        use fullview_core::stevens_coverage_probability as stevens;
        let p = stevens(n_arcs, a);
        prop_assert!((0.0..=1.0).contains(&p));
        // Monotone in arc count.
        let p_more = stevens(n_arcs + 1, a);
        prop_assert!(p_more >= p - 1e-9);
        // Below the deterministic threshold N·a < 1, coverage is impossible.
        if (n_arcs as f64) * a < 1.0 - 1e-9 {
            prop_assert!(p < 1e-9, "N={n_arcs}, a={a}: p={p}");
        }
    }

    #[test]
    fn exact_probability_respects_bracket(
        s in 1e-4..0.1f64,
        n in 50usize..3000,
        f in 0.1..=1.0f64,
    ) {
        use fullview_core::{
            prob_point_fails_necessary, prob_point_fails_sufficient,
            prob_point_full_view_uniform,
        };
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let profile = NetworkProfile::homogeneous(
            SensorSpec::with_sensing_area(s, PI / 2.0).unwrap(),
        );
        let exact = prob_point_full_view_uniform(&profile, n, theta);
        prop_assert!((0.0..=1.0).contains(&exact));
        let lower = 1.0 - prob_point_fails_sufficient(&profile, n, theta);
        let upper = 1.0 - prob_point_fails_necessary(&profile, n, theta);
        prop_assert!(exact <= upper + 1e-6, "exact {exact} > upper {upper}");
        // The lower bound uses the independence approximation, which can
        // exceed the true sufficient probability by a second-order term;
        // allow a small tolerance.
        prop_assert!(exact >= lower - 1e-3, "exact {exact} < lower {lower}");
    }

    #[test]
    fn view_multiplicity_matches_brute_force(
        net in network_strategy(30),
        f in 0.1..=1.0f64,
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        use fullview_core::view_multiplicity;
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let p = Point::new(px, py);
        let sweep = view_multiplicity(&net, p, theta);
        // Brute force: probe a uniform fan PLUS every arc endpoint ± ε —
        // depth is piecewise constant with breakpoints exactly at the
        // endpoints, so endpoint-adjacent probes see every depth level
        // (uniform probes alone can miss sliver gaps).
        let analysis = analyze_point(&net, p);
        let mut probes: Vec<fullview_geom::Angle> = (0..720)
            .map(|i| fullview_geom::Angle::new(i as f64 * TAU / 720.0))
            .collect();
        for v in &analysis.viewed_directions {
            for delta in [-1e-7, 1e-7] {
                probes.push(v.rotate(theta.radians() + delta));
                probes.push(v.rotate(-theta.radians() + delta));
            }
        }
        let mut brute_lo = usize::MAX;
        let mut brute_hi = usize::MAX;
        for d in probes {
            // Each co-located camera watches every direction.
            let base = analysis.covering_cameras - analysis.viewed_directions.len();
            let hi = base + analysis
                .viewed_directions
                .iter()
                .filter(|v| v.distance(d) <= theta.radians() + 1e-6)
                .count();
            let lo = base + analysis
                .viewed_directions
                .iter()
                .filter(|v| v.distance(d) <= theta.radians() - 1e-6)
                .count();
            brute_hi = brute_hi.min(hi);
            brute_lo = brute_lo.min(lo);
        }
        // The sweep must sit between the two sampled brackets.
        prop_assert!(
            sweep >= brute_lo.min(brute_hi) && sweep <= brute_hi.max(brute_lo) ,
            "sweep {sweep} outside brute bracket [{brute_lo}, {brute_hi}] at {p}"
        );
    }

    #[test]
    fn k_fullview_chain_on_random_networks(
        net in network_strategy(40),
        f in 0.1..=1.0f64,
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        use fullview_core::{is_k_full_view_covered, view_multiplicity};
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let p = Point::new(px, py);
        let m = view_multiplicity(&net, p, theta);
        // k ≤ m covered, k > m not.
        for k in 0..=m.min(5) {
            prop_assert!(is_k_full_view_covered(&net, p, theta, k));
        }
        prop_assert!(!is_k_full_view_covered(&net, p, theta, m + 1));
        // k = 1 coincides with plain full-view.
        prop_assert_eq!(
            is_k_full_view_covered(&net, p, theta, 1),
            is_full_view_covered(&net, p, theta)
        );
    }

    #[test]
    fn dependent_probability_never_exceeds_independent(
        s in 1e-4..0.05f64,
        n in 20usize..2000,
        f in 0.1..=1.0f64,
    ) {
        use fullview_core::{prob_point_meets_dependent, Condition};
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let profile = NetworkProfile::homogeneous(
            SensorSpec::with_sensing_area(s, PI / 2.0).unwrap(),
        );
        let dep = prob_point_meets_dependent(Condition::Necessary, &profile, n, theta);
        let indep = 1.0 - prob_point_fails_necessary(&profile, n, theta);
        prop_assert!((0.0..=1.0).contains(&dep));
        prop_assert!(dep <= indep + 1e-9, "dep {dep} > indep {indep}");
    }

    #[test]
    fn safe_fraction_in_range_and_consistent(
        net in network_strategy(30),
        f in 0.1..=1.0f64,
        px in 0.0..1.0f64,
        py in 0.0..1.0f64,
    ) {
        use fullview_core::safe_fraction;
        let theta = EffectiveAngle::new(f * PI).unwrap();
        let p = Point::new(px, py);
        let frac = safe_fraction(&net, p, theta);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&frac));
        if is_full_view_covered(&net, p, theta) {
            prop_assert!(frac >= 1.0 - 1e-6);
        } else {
            prop_assert!(frac < 1.0 + 1e-9);
        }
    }
}
