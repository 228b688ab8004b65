//! Per-point probability theory under Poisson deployment
//! (§V, Theorems 3 and 4).
//!
//! Under a 2-D Poisson process of overall density `n`, each group `G_y` is
//! an independent Poisson process of density `n_y = c_y·n`. For one sector
//! `T_j` of the §III construction (central angle `2θ`, radius `r_y`), the
//! number of `G_y` sensors inside is `Poisson(θ n_y r_y²)` and each is
//! properly oriented with probability `φ_y/2π`, giving
//!
//! `Q_{N,y} = Σ_{k≥1} Pois(k; θ n_y r_y²)·[1 − (1 − φ_y/2π)^k]`.
//!
//! The thinned-process identity `Σ_k Pois(k;λ)x^k = e^{λ(x−1)}` collapses
//! the series to the closed form `Q_{N,y} = 1 − exp(−(θ/π)·n_y s_y)`, and
//! analogously `Q_{S,y} = 1 − exp(−(θ/2π)·n_y s_y)` for the §IV sectors of
//! angle `θ`. Both the paper's truncated series and the closed forms are
//! implemented; the tests verify they agree.

use crate::numeric::PoissonPmf;
use crate::theta::EffectiveAngle;
use fullview_model::NetworkProfile;
use std::f64::consts::TAU;

/// Which of the two geometric conditions the probability refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// §III construction (`2θ`-sectors, `K_N = ⌈π/θ⌉` of them).
    Necessary,
    /// §IV construction (`θ`-sectors, `K_S = ⌈2π/θ⌉` of them).
    Sufficient,
}

impl Condition {
    /// Central angle of one sector of this condition's construction.
    fn sector_angle(self, theta: EffectiveAngle) -> f64 {
        match self {
            Condition::Necessary => 2.0 * theta.radians(),
            Condition::Sufficient => theta.radians(),
        }
    }

    /// Number of sectors that must each contain a covering camera.
    fn sector_count(self, theta: EffectiveAngle) -> usize {
        match self {
            Condition::Necessary => theta.necessary_sector_count(),
            Condition::Sufficient => theta.sufficient_sector_count(),
        }
    }
}

/// Closed form of `Q_y` — the probability that at least one group-`G_y`
/// sensor falls in one sector and covers the point:
/// `1 − exp(−(sector_angle/2)·n_y r_y²·(φ_y/2π)·…)` which simplifies to
/// `1 − exp(−(θ/π)·n_y s_y)` (necessary) or `1 − exp(−(θ/2π)·n_y s_y)`
/// (sufficient).
#[must_use]
pub fn q_closed_form(
    condition: Condition,
    theta: EffectiveAngle,
    group_density: f64,
    radius: f64,
    angle_of_view: f64,
) -> f64 {
    let w = condition.sector_angle(theta);
    // Sector area = (w/2)·r²; expected properly-oriented sensors inside:
    let mean_covering = (w / 2.0) * radius * radius * group_density * (angle_of_view / TAU);
    -(-mean_covering).exp_m1()
}

/// The paper's truncated series for `Q_y` (Theorem 3/4 statement),
/// summing `k = 1..=terms` Poisson terms.
///
/// Converges to [`q_closed_form`] as `terms → ∞`; the paper truncates at
/// `n_y`, which is far past the Poisson bulk for all practical parameters.
#[must_use]
pub fn q_series(
    condition: Condition,
    theta: EffectiveAngle,
    group_density: f64,
    radius: f64,
    angle_of_view: f64,
    terms: usize,
) -> f64 {
    let w = condition.sector_angle(theta);
    let lambda = (w / 2.0) * radius * radius * group_density;
    let orient_miss = 1.0 - angle_of_view / TAU;
    let mut q = 0.0;
    let mut orient_pow = 1.0;
    for (k, pmf) in PoissonPmf::new(lambda).take(terms + 1).enumerate() {
        if k == 0 {
            continue; // k = 0 contributes nothing.
        }
        orient_pow *= orient_miss;
        q += pmf * (1.0 - orient_pow);
    }
    q
}

/// **Theorems 3 & 4.** The probability that an arbitrary point meets the
/// necessary (resp. sufficient) condition of full-view coverage under
/// Poisson deployment of overall density `density`:
/// `P = [1 − Π_y (1 − Q_y)]^{K}`.
///
/// Also the expected fraction of the region meeting the condition (§V).
#[must_use]
pub fn prob_point_meets(
    condition: Condition,
    profile: &NetworkProfile,
    density: f64,
    theta: EffectiveAngle,
) -> f64 {
    let mut all_groups_miss = 1.0;
    for group in profile.groups() {
        let q = q_closed_form(
            condition,
            theta,
            group.fraction() * density,
            group.spec().radius(),
            group.spec().angle_of_view(),
        );
        all_groups_miss *= 1.0 - q;
    }
    // More than i32::MAX sectors (θ below ~3e-9 rad) saturates the
    // exponent instead of wrapping it negative, which would print `inf`.
    let sectors = i32::try_from(condition.sector_count(theta)).unwrap_or(i32::MAX);
    (1.0 - all_groups_miss).powi(sectors)
}

/// Theorem 3 (`P_N`): probability an arbitrary point meets the necessary
/// condition under Poisson deployment.
///
/// # Examples
///
/// ```
/// use fullview_core::{prob_point_meets_necessary_poisson, EffectiveAngle};
/// use fullview_model::{NetworkProfile, SensorSpec};
/// use std::f64::consts::PI;
///
/// let theta = EffectiveAngle::new(PI / 4.0)?;
/// let profile = NetworkProfile::homogeneous(SensorSpec::new(0.15, PI / 2.0)?);
/// let p = prob_point_meets_necessary_poisson(&profile, 1500.0, theta);
/// assert!((0.0..=1.0).contains(&p));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn prob_point_meets_necessary_poisson(
    profile: &NetworkProfile,
    density: f64,
    theta: EffectiveAngle,
) -> f64 {
    prob_point_meets(Condition::Necessary, profile, density, theta)
}

/// Theorem 4 (`P_S`): probability an arbitrary point meets the sufficient
/// condition under Poisson deployment.
#[must_use]
pub fn prob_point_meets_sufficient_poisson(
    profile: &NetworkProfile,
    density: f64,
    theta: EffectiveAngle,
) -> f64 {
    prob_point_meets(Condition::Sufficient, profile, density, theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_model::SensorSpec;
    use std::f64::consts::PI;

    fn theta(t: f64) -> EffectiveAngle {
        EffectiveAngle::new(t).unwrap()
    }

    #[test]
    fn series_converges_to_closed_form() {
        let th = theta(PI / 4.0);
        for &(density, r, phi) in &[
            (500.0, 0.1, PI / 2.0),
            (1000.0, 0.05, PI),
            (200.0, 0.2, PI / 8.0),
        ] {
            for cond in [Condition::Necessary, Condition::Sufficient] {
                let closed = q_closed_form(cond, th, density, r, phi);
                let series = q_series(cond, th, density, r, phi, 400);
                assert!(
                    (closed - series).abs() < 1e-9,
                    "{cond:?} d={density} r={r} φ={phi}: {closed} vs {series}"
                );
            }
        }
    }

    #[test]
    fn series_is_monotone_in_terms() {
        let th = theta(PI / 3.0);
        let mut prev = 0.0;
        for terms in [1, 2, 5, 10, 50, 200] {
            let q = q_series(Condition::Necessary, th, 800.0, 0.08, PI / 2.0, terms);
            assert!(q >= prev - 1e-15, "terms={terms}");
            prev = q;
        }
    }

    #[test]
    fn q_closed_form_matches_weighted_area_identity() {
        // Q_{N,y} = 1 − exp(−(θ/π)·n_y·s_y): the sensing-area identity.
        let th = theta(PI / 5.0);
        let r = 0.12;
        let phi = PI / 3.0;
        let density = 600.0;
        let s_y = phi * r * r / 2.0;
        let q = q_closed_form(Condition::Necessary, th, density, r, phi);
        let want = 1.0 - (-(th.radians() / PI) * density * s_y).exp();
        assert!((q - want).abs() < 1e-12);
        let q = q_closed_form(Condition::Sufficient, th, density, r, phi);
        let want = 1.0 - (-(th.radians() / TAU) * density * s_y).exp();
        assert!((q - want).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI / 2.0).unwrap());
        for density in [0.0, 10.0, 500.0, 10_000.0] {
            for t in [0.05 * PI, PI / 4.0, PI] {
                let th = theta(t);
                let pn = prob_point_meets_necessary_poisson(&profile, density, th);
                let ps = prob_point_meets_sufficient_poisson(&profile, density, th);
                assert!((0.0..=1.0).contains(&pn));
                assert!((0.0..=1.0).contains(&ps));
            }
        }
    }

    #[test]
    fn sector_counts_past_i32_saturate_instead_of_wrapping() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI / 2.0).unwrap());
        // θ = 1e-7°: ⌈2π/θ⌉ ≈ 3.6e9 sufficient sectors, past i32::MAX.
        let tiny = theta(1e-7f64.to_radians());
        assert!(tiny.sufficient_sector_count() > i32::MAX as usize);
        for density in [10.0, 800.0, 1e9] {
            let ps = prob_point_meets_sufficient_poisson(&profile, density, tiny);
            let pn = prob_point_meets_necessary_poisson(&profile, density, tiny);
            assert!((0.0..=1.0).contains(&ps), "density {density}: P_S={ps}");
            assert!((0.0..=1.0).contains(&pn), "density {density}: P_N={pn}");
        }
        // A count that fits in i32 keeps its exact power.
        let th = theta(PI / 4.0);
        let q = q_closed_form(Condition::Sufficient, th, 800.0, 0.1, PI / 2.0);
        let want = (1.0 - (1.0 - q)).powi(th.sufficient_sector_count() as i32);
        assert_eq!(
            prob_point_meets_sufficient_poisson(&profile, 800.0, th),
            want
        );
    }

    #[test]
    fn necessary_easier_than_sufficient() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI / 2.0).unwrap());
        let th = theta(PI / 4.0);
        for density in [100.0, 500.0, 2000.0] {
            let pn = prob_point_meets_necessary_poisson(&profile, density, th);
            let ps = prob_point_meets_sufficient_poisson(&profile, density, th);
            assert!(pn >= ps - 1e-12, "density {density}: P_N={pn} < P_S={ps}");
        }
    }

    #[test]
    fn monotone_in_density() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.08, PI / 2.0).unwrap());
        let th = theta(PI / 4.0);
        let mut prev = 0.0;
        for density in [50.0, 100.0, 400.0, 1600.0, 6400.0] {
            let p = prob_point_meets_necessary_poisson(&profile, density, th);
            assert!(p >= prev, "density {density}");
            prev = p;
        }
        assert!(prev > 0.99, "high density should almost surely satisfy");
    }

    #[test]
    fn zero_density_never_meets() {
        let profile = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI).unwrap());
        let th = theta(PI / 4.0);
        assert_eq!(prob_point_meets_necessary_poisson(&profile, 0.0, th), 0.0);
        assert_eq!(prob_point_meets_sufficient_poisson(&profile, 0.0, th), 0.0);
    }

    #[test]
    fn theta_pi_necessary_is_one_coverage_probability() {
        // θ = π: one full-circle "sector"; P_N = 1 − exp(−n·s) — the classic
        // Poisson-Boolean 1-coverage probability of a point.
        let r = 0.1;
        let phi = PI / 2.0;
        let profile = NetworkProfile::homogeneous(SensorSpec::new(r, phi).unwrap());
        let density = 700.0;
        let s = phi * r * r / 2.0;
        let p = prob_point_meets_necessary_poisson(&profile, density, theta(PI));
        let want = 1.0 - (-density * s).exp();
        assert!((p - want).abs() < 1e-12, "{p} vs {want}");
    }

    #[test]
    fn heterogeneous_groups_compose_independently() {
        let th = theta(PI / 4.0);
        let density = 900.0;
        let spec_a = SensorSpec::new(0.06, PI / 2.0).unwrap();
        let spec_b = SensorSpec::new(0.12, PI / 6.0).unwrap();
        let mix = NetworkProfile::builder()
            .group(spec_a, 0.5)
            .group(spec_b, 0.5)
            .build()
            .unwrap();
        let p_mix = prob_point_meets_necessary_poisson(&mix, density, th);
        // Manual composition.
        let qa = q_closed_form(Condition::Necessary, th, 450.0, 0.06, PI / 2.0);
        let qb = q_closed_form(Condition::Necessary, th, 450.0, 0.12, PI / 6.0);
        let want = (1.0 - (1.0 - qa) * (1.0 - qb)).powi(th.necessary_sector_count() as i32);
        assert!((p_mix - want).abs() < 1e-12);
    }

    #[test]
    fn poisson_sensing_ability_not_area_alone() {
        // §V's observation: under Poisson deployment the closed form depends
        // on s_y only; but the *series truncated at small k* differs...
        // Actually the exact probabilities also depend only on n_y·s_y —
        // the paper's "complicated interaction" refers to the series form.
        // Verify the closed-form area identity holds across shapes:
        let th = theta(PI / 4.0);
        let a = q_closed_form(Condition::Necessary, th, 500.0, 0.1, PI / 2.0);
        let same_area = SensorSpec::with_sensing_area(PI / 2.0 * 0.01 / 2.0, PI / 8.0).unwrap();
        let b = q_closed_form(
            Condition::Necessary,
            th,
            500.0,
            same_area.radius(),
            same_area.angle_of_view(),
        );
        assert!((a - b).abs() < 1e-12);
    }
}
