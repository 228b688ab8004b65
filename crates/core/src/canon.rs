//! Canonical hashing for content-addressed result caching.
//!
//! A long-running coverage service answers the same query many times as
//! fleets are re-checked; caching those answers needs a *canonical* key:
//! the same logical request must hash identically across processes and
//! platforms, and any change to an input that can change the answer must
//! change the hash. Rust's `DefaultHasher` is explicitly not stable
//! across releases, so this module pins a tiny FNV-1a 64-bit hasher with
//! explicit field tagging and a bit-exact float encoding (`-0.0` is
//! normalized to `0.0`; NaN is rejected by the model long before it gets
//! here).
//!
//! [`network_fingerprint`] and [`profile_fingerprint`] digest the full
//! structural content of a deployment / profile, so a cache keyed on
//! them is invalidated *by construction* when a camera fails, moves, or
//! the fleet is reseeded.
//!
//! The network fingerprint is an *AdHash* (Bellare & Micciancio, "A New
//! Paradigm for Collision-free Hashing: Incrementality at Reduced Cost",
//! EUROCRYPT 1997): a header term over the torus side and the fleet size
//! plus the wrapping sum of one [`CanonicalHasher`] term per
//! `(index, camera)`. A sum is incremental: [`moved_fingerprint`] swaps
//! one camera's term for its new one in O(1), and a move followed by its
//! inverse restores the value exactly, so the daemon never rehashes the
//! fleet for a `move`. The journal (`fullview wal v2`), the snapshot
//! header (`fullview snapshot v2`) and the `fingerprint` verb carry this
//! value; files written under the earlier single-stream FNV digest (v1)
//! are refused by version.

use fullview_model::{Camera, CameraNetwork, NetworkProfile};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable FNV-1a 64-bit hasher with explicit, length-prefixed field
/// encoding — deliberately *not* `std::hash::Hasher` so call sites can
/// only feed it through the canonical typed methods.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        CanonicalHasher { state: FNV_OFFSET }
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` widened to 64 bits.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a float bit-exactly, normalizing `-0.0` to `0.0` so the two
    /// representations of zero address the same cache entry.
    pub fn write_f64(&mut self, v: f64) {
        let canonical = if v == 0.0 { 0.0f64 } else { v };
        self.write_u64(canonical.to_bits());
    }

    /// Feeds a string, length-prefixed so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 64-bit digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Digest of the full structural content of a deployed network: torus
/// side and fleet size, plus, per camera, its index, position,
/// orientation, spec, and group. Any mutation that can change a coverage
/// answer changes this fingerprint.
///
/// The value is the header term plus the wrapping sum of every camera's
/// term (see the module docs), so it can be maintained across a `move`
/// with [`moved_fingerprint`] instead of being recomputed.
#[must_use]
pub fn network_fingerprint(net: &CameraNetwork) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str("network");
    h.write_f64(net.torus().side());
    h.write_usize(net.len());
    net.cameras()
        .iter()
        .enumerate()
        .fold(h.finish(), |fp, (id, cam)| {
            fp.wrapping_add(camera_term(id, cam))
        })
}

/// The fingerprint of a network after its camera `id` changed from
/// `before` to `after`, given the fingerprint `fp` before the change:
/// one camera's term out, its new term in. Equal to
/// [`network_fingerprint`] of the changed network whenever `fp` was that
/// of the unchanged one.
#[must_use]
pub fn moved_fingerprint(fp: u64, id: usize, before: &Camera, after: &Camera) -> u64 {
    fp.wrapping_sub(camera_term(id, before))
        .wrapping_add(camera_term(id, after))
}

/// One camera's AdHash term: its index in the fleet, then every field a
/// coverage answer reads.
fn camera_term(id: usize, cam: &Camera) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_usize(id);
    h.write_f64(cam.position().x);
    h.write_f64(cam.position().y);
    h.write_f64(cam.orientation().radians());
    h.write_f64(cam.spec().radius());
    h.write_f64(cam.spec().angle_of_view());
    h.write_usize(cam.group().0);
    h.finish()
}

/// Digest of a heterogeneous profile (per group: fraction, radius, angle
/// of view). Theory-only answers depend on the profile but *not* on any
/// particular deployment, so they are keyed on this instead of
/// [`network_fingerprint`] and survive deployment mutations.
#[must_use]
pub fn profile_fingerprint(profile: &NetworkProfile) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str("profile");
    h.write_usize(profile.group_count());
    for g in profile.groups() {
        h.write_f64(g.fraction());
        h.write_f64(g.spec().radius());
        h.write_f64(g.spec().angle_of_view());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::{Angle, Point, Torus};
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    const PINNED_SAMPLE_FP: u64 = 10_709_239_698_309_371_034;

    fn sample_net() -> CameraNetwork {
        let spec = SensorSpec::new(0.1, PI / 2.0).unwrap();
        CameraNetwork::new(
            Torus::unit(),
            vec![
                Camera::new(Point::new(0.2, 0.3), Angle::new(1.0), spec, GroupId(0)),
                Camera::new(Point::new(0.7, 0.6), Angle::new(2.0), spec, GroupId(1)),
            ],
        )
    }

    #[test]
    fn hasher_is_deterministic_and_tagged() {
        let mut a = CanonicalHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = CanonicalHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix must separate fields");
        let mut c = CanonicalHasher::new();
        c.write_str("ab");
        c.write_str("c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn negative_zero_is_canonical() {
        let mut a = CanonicalHasher::new();
        a.write_f64(0.0);
        let mut b = CanonicalHasher::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish());
        let mut c = CanonicalHasher::new();
        c.write_f64(1e-300);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn network_fingerprint_tracks_structure() {
        let net = sample_net();
        let fp = network_fingerprint(&net);
        assert_eq!(
            fp,
            network_fingerprint(&net.clone()),
            "stable across clones"
        );

        let mut failed = net.clone();
        assert!(failed.remove_camera(1));
        assert_ne!(fp, network_fingerprint(&failed), "removal must change it");

        let mut moved = net.clone();
        assert!(moved.move_camera(0, Point::new(0.21, 0.3)));
        assert_ne!(fp, network_fingerprint(&moved), "a move must change it");

        let empty = CameraNetwork::new(Torus::unit(), Vec::new());
        assert_ne!(fp, network_fingerprint(&empty));

        // Each camera's term carries its index: the same cameras in
        // another order are another fleet.
        let swapped = CameraNetwork::new(Torus::unit(), vec![net.cameras()[1], net.cameras()[0]]);
        assert_ne!(fp, network_fingerprint(&swapped));
    }

    #[test]
    fn moved_fingerprint_matches_a_fresh_digest_and_inverts() {
        let net = sample_net();
        let fp = network_fingerprint(&net);
        let mut moved = net.clone();
        assert!(moved.move_camera(1, Point::new(1.25, -0.5)));
        let (before, after) = (net.cameras()[1], moved.cameras()[1]);
        let kept = moved_fingerprint(fp, 1, &before, &after);
        assert_eq!(kept, network_fingerprint(&moved));
        assert_eq!(
            moved_fingerprint(kept, 1, &after, &before),
            fp,
            "inverse move"
        );
    }

    #[test]
    fn network_fingerprint_value_is_pinned() {
        // The value is stored in journals and snapshot headers and sent
        // by the `fingerprint` verb: changing the digest is a format
        // change (bump `WAL_MAGIC` and `SNAPSHOT_MAGIC` with it).
        assert_eq!(network_fingerprint(&sample_net()), PINNED_SAMPLE_FP);
    }

    #[test]
    fn profile_fingerprint_tracks_groups() {
        let a = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI / 2.0).unwrap());
        let b = NetworkProfile::homogeneous(SensorSpec::new(0.1, PI / 3.0).unwrap());
        assert_eq!(profile_fingerprint(&a), profile_fingerprint(&a.clone()));
        assert_ne!(profile_fingerprint(&a), profile_fingerprint(&b));
    }

    #[test]
    fn network_and_profile_domains_are_separated() {
        // An empty network and an (impossible) empty-ish profile must not
        // collide just because both digest "nothing": domain tags differ.
        let empty = CameraNetwork::new(Torus::unit(), Vec::new());
        let prof = NetworkProfile::homogeneous(SensorSpec::new(0.1, 1.0).unwrap());
        assert_ne!(network_fingerprint(&empty), profile_fingerprint(&prof));
    }
}
