//! Warm-state snapshot/restore: the daemon's fleet persisted to disk.
//!
//! A snapshot captures everything a daemon needs to answer queries
//! exactly as the snapshotted one did: the torus, the heterogeneous
//! profile, and every deployed camera — all float fields in the exact
//! `0x`-prefixed bit-pattern form of `model::io`, so a restored fleet is
//! *bit-identical* and carries the same canonical FNV-1a fingerprints.
//! The fingerprints are written into the header and re-verified against
//! the reparsed state on read, so a corrupted or hand-edited snapshot is
//! rejected instead of silently serving wrong answers.
//!
//! Format (line-oriented UTF-8):
//!
//! ```text
//! # fullview snapshot v1
//! torus 0x3ff0000000000000
//! net_fp 1234567890123456789
//! profile_fp 9876543210987654321
//! @profile
//! <profile_to_text_exact lines>
//! @network
//! <network_to_text_exact lines>
//! @end
//! ```
//!
//! Writes go through a `<path>.tmp` + rename so a crash mid-write never
//! leaves a truncated snapshot at the published path; the mandatory
//! `@end` trailer additionally rejects any file cut short by other
//! means (partial copy, full disk) with a clear "truncated" error
//! instead of a confusing parse failure — or worse, a silently smaller
//! fleet.

use fullview_core::canon::{network_fingerprint, profile_fingerprint};
use fullview_geom::Torus;
use fullview_model::{
    network_from_text, network_to_text_exact, profile_from_text, profile_to_text_exact,
    CameraNetwork, NetworkProfile,
};
use std::fs;
use std::io;
use std::path::Path;

/// The first line of every snapshot file.
pub const SNAPSHOT_MAGIC: &str = "# fullview snapshot v1";

/// A fleet state read back from disk, fingerprints verified.
#[derive(Debug)]
pub struct Snapshot {
    /// The heterogeneous profile.
    pub profile: NetworkProfile,
    /// The deployed network (bit-identical to the snapshotted one).
    pub net: CameraNetwork,
    /// Canonical network fingerprint (recomputed and header-verified).
    pub net_fp: u64,
    /// Canonical profile fingerprint (recomputed and header-verified).
    pub profile_fp: u64,
}

/// Serializes a fleet to the snapshot text format.
#[must_use]
pub fn snapshot_to_text(profile: &NetworkProfile, net: &CameraNetwork) -> String {
    let mut out = String::new();
    out.push_str(SNAPSHOT_MAGIC);
    out.push('\n');
    out.push_str(&format!("torus 0x{:016x}\n", net.torus().side().to_bits()));
    out.push_str(&format!("net_fp {}\n", network_fingerprint(net)));
    out.push_str(&format!("profile_fp {}\n", profile_fingerprint(profile)));
    out.push_str("@profile\n");
    out.push_str(&profile_to_text_exact(profile));
    out.push_str("@network\n");
    out.push_str(&network_to_text_exact(net));
    out.push_str("@end\n");
    out
}

/// Writes a snapshot atomically (`<path>.tmp` + rename) and returns the
/// `(net_fp, profile_fp)` pair written into its header.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn write_snapshot(
    path: &Path,
    profile: &NetworkProfile,
    net: &CameraNetwork,
) -> io::Result<(u64, u64)> {
    let text = snapshot_to_text(profile, net);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &text)?;
    fs::rename(&tmp, path)?;
    Ok((network_fingerprint(net), profile_fingerprint(profile)))
}

/// Parses a snapshot from its text form, recomputing both canonical
/// fingerprints and verifying them against the header.
///
/// # Errors
///
/// A human-readable message for a missing magic line, malformed header
/// fields, unparseable sections, or a fingerprint mismatch (corruption).
pub fn snapshot_from_text(text: &str) -> Result<Snapshot, String> {
    let mut lines = text.lines();
    if lines.next() != Some(SNAPSHOT_MAGIC) {
        return Err(format!(
            "not a snapshot (want first line '{SNAPSHOT_MAGIC}')"
        ));
    }
    let mut torus_side: Option<f64> = None;
    let mut want_net_fp: Option<u64> = None;
    let mut want_profile_fp: Option<u64> = None;
    let mut profile_text = String::new();
    let mut network_text = String::new();
    let mut section: Option<&mut String> = None;
    let mut ended = false;
    for line in lines {
        if ended {
            return Err("data after the '@end' trailer (snapshot corrupted?)".to_string());
        }
        match line {
            "@profile" => section = Some(&mut profile_text),
            "@network" => section = Some(&mut network_text),
            "@end" => ended = true,
            _ => match section {
                Some(ref mut buf) => {
                    buf.push_str(line);
                    buf.push('\n');
                }
                None => {
                    let Some((key, value)) = line.split_once(' ') else {
                        return Err(format!("malformed header line '{line}'"));
                    };
                    match key {
                        "torus" => torus_side = Some(parse_exact_f64(value)?),
                        "net_fp" => {
                            want_net_fp =
                                Some(value.parse().map_err(|e| format!("bad net_fp: {e}"))?);
                        }
                        "profile_fp" => {
                            want_profile_fp =
                                Some(value.parse().map_err(|e| format!("bad profile_fp: {e}"))?);
                        }
                        other => return Err(format!("unknown header key '{other}'")),
                    }
                }
            },
        }
    }
    if !ended {
        return Err("truncated snapshot: missing '@end' trailer".to_string());
    }
    let side = torus_side.ok_or("missing 'torus' header")?;
    if !side.is_finite() || side <= 0.0 {
        return Err(format!(
            "torus side must be finite and positive, got {side}"
        ));
    }
    let want_net_fp = want_net_fp.ok_or("missing 'net_fp' header")?;
    let want_profile_fp = want_profile_fp.ok_or("missing 'profile_fp' header")?;
    let profile = profile_from_text(&profile_text).map_err(|e| format!("profile section: {e}"))?;
    let net = network_from_text(Torus::with_side(side), &network_text)
        .map_err(|e| format!("network section: {e}"))?;
    let net_fp = network_fingerprint(&net);
    let profile_fp = profile_fingerprint(&profile);
    if net_fp != want_net_fp {
        return Err(format!(
            "network fingerprint mismatch: header {want_net_fp}, reparsed state {net_fp} (snapshot corrupted?)"
        ));
    }
    if profile_fp != want_profile_fp {
        return Err(format!(
            "profile fingerprint mismatch: header {want_profile_fp}, reparsed state {profile_fp} (snapshot corrupted?)"
        ));
    }
    Ok(Snapshot {
        profile,
        net,
        net_fp,
        profile_fp,
    })
}

/// Reads and verifies a snapshot file — see [`snapshot_from_text`].
///
/// # Errors
///
/// The read error's display form, or any [`snapshot_from_text`] error.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    snapshot_from_text(&text)
}

/// Parses a float written as an exact `0x`-prefixed bit pattern.
pub(crate) fn parse_exact_f64(s: &str) -> Result<f64, String> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("want 0x-prefixed bit pattern, got '{s}'"))?;
    u64::from_str_radix(hex, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad bit pattern '{s}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_geom::{Angle, Point};
    use fullview_model::{Camera, GroupId, SensorSpec};
    use std::f64::consts::PI;

    fn fixture() -> (NetworkProfile, CameraNetwork) {
        let profile = NetworkProfile::builder()
            .group(SensorSpec::new(0.1 + 1e-13, PI / 3.0).unwrap(), 0.7)
            .group(SensorSpec::new(0.2, PI / 7.0).unwrap(), 0.3)
            .build()
            .unwrap();
        let spec = *profile.groups()[0].spec();
        let cams = (0..7)
            .map(|i| {
                Camera::new(
                    Point::new((i as f64 * 0.1403) % 1.0, (i as f64 * 0.3301) % 1.0),
                    Angle::new(i as f64 * 0.77),
                    spec,
                    GroupId(0),
                )
            })
            .collect();
        (profile, CameraNetwork::new(Torus::unit(), cams))
    }

    #[test]
    fn roundtrip_preserves_both_fingerprints() {
        let (profile, net) = fixture();
        let text = snapshot_to_text(&profile, &net);
        let snap = snapshot_from_text(&text).unwrap();
        assert_eq!(snap.net_fp, network_fingerprint(&net));
        assert_eq!(snap.profile_fp, profile_fingerprint(&profile));
        assert_eq!(snap.net.len(), net.len());
        assert_eq!(snap.net.torus(), net.torus());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_verified() {
        let (profile, net) = fixture();
        let dir = std::env::temp_dir().join(format!("fvc-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard0.snap");
        let (net_fp, profile_fp) = write_snapshot(&path, &profile, &net).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
        let snap = read_snapshot(&path).unwrap();
        assert_eq!((snap.net_fp, snap.profile_fp), (net_fp, profile_fp));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_by_fingerprint_check() {
        let (profile, net) = fixture();
        let text = snapshot_to_text(&profile, &net);
        // Flip one camera's x bit pattern: parses fine, fingerprint differs.
        let target = text
            .lines()
            .find(|l| l.starts_with("0x") && l.split_whitespace().count() >= 6)
            .unwrap()
            .to_string();
        let mut fields: Vec<String> = target.split_whitespace().map(String::from).collect();
        let bits = u64::from_str_radix(fields[0].strip_prefix("0x").unwrap(), 16).unwrap();
        fields[0] = format!("0x{:016x}", bits ^ 1);
        let corrupt = text.replacen(&target, &fields.join(" "), 1);
        let err = snapshot_from_text(&corrupt).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(snapshot_from_text("")
            .unwrap_err()
            .contains("not a snapshot"));
        assert!(snapshot_from_text("# fullview snapshot v1\nbogus\n")
            .unwrap_err()
            .contains("malformed header"));
        assert!(
            snapshot_from_text("# fullview snapshot v1\ntorus 0x3ff0000000000000\n@end\n")
                .unwrap_err()
                .contains("missing 'net_fp'")
        );
        assert!(read_snapshot(Path::new("/nonexistent/nope.snap"))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn every_truncation_is_rejected() {
        // Cutting a valid snapshot anywhere — line boundaries or
        // mid-line — must fail loudly, never install a smaller fleet.
        let (profile, net) = fixture();
        let text = snapshot_to_text(&profile, &net);
        assert!(text.ends_with("@end\n"));
        let step = (text.len() / 23).max(1);
        for cut in (0..text.len()).step_by(step) {
            assert!(
                snapshot_from_text(&text[..cut]).is_err(),
                "truncation at byte {cut}/{} must be rejected",
                text.len()
            );
        }
        // Trailing garbage after the trailer is rejected too.
        let appended = format!("{text}junk\n");
        assert!(snapshot_from_text(&appended)
            .unwrap_err()
            .contains("after the '@end'"));
        // And the dedicated truncation message names the cause.
        let no_end = text.strip_suffix("@end\n").unwrap();
        assert!(snapshot_from_text(no_end)
            .unwrap_err()
            .contains("truncated snapshot"));
    }
}
