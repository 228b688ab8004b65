//! Write-ahead mutation journal: crash durability for `fail`/`move`/
//! `reseed`.
//!
//! With `--wal <snapshot>` the daemon journals every accepted mutation
//! to `<snapshot>.wal` — fsync'd *before* the fleet mutates — so a
//! `kill -9` loses at most the mutations that were never acknowledged.
//! On startup the daemon restores `<snapshot>` (writing it first if
//! absent, pinning the base state) and replays the journal; the
//! `snapshot` verb re-snapshots the base and truncates the journal.
//!
//! Format (line-oriented UTF-8):
//!
//! ```text
//! # fullview wal v2
//! <len> <fnv:016x> <payload>
//! ```
//!
//! v2 records carry the additive network fingerprint of
//! [`fullview_core::canon`]; a v1 journal (single-stream FNV
//! fingerprints) is refused by version at startup, since its `pre=`
//! values could never chain onto a v2 fingerprint.
//!
//! Each record line carries the payload's byte length and its FNV-1a
//! checksum (the same pinned hash as the canonical fingerprints), so a
//! torn tail — a record cut short by the crash — is detected and
//! dropped rather than misparsed. A torn record can only ever be a
//! mutation that was never acknowledged (the ack happens strictly after
//! the fsync), so dropping it is correct. A bad record *followed by
//! valid ones* is mid-file corruption and fails recovery loudly.
//!
//! Every payload starts with the **pre-state network fingerprint** the
//! mutation was applied on top of (`pre=<fp>`), making the journal a
//! self-verifying hash chain: replay skips records already contained in
//! the restored snapshot (their `pre` doesn't match the restored
//! fingerprint — the crash-between-snapshot-and-truncate window), then
//! applies the suffix whose chain links up, re-checking the fingerprint
//! after every step. Float coordinates use the exact `0x` bit-pattern
//! discipline of `model::io`, so replay is bit-identical.
//!
//! The live daemon and replay ([`apply_op`]) commit every op through
//! one function, `commit_op`, which also maintains the fingerprint: a
//! `move` swaps one camera's AdHash term in O(1); a `fail` (which shifts
//! camera indices) and a `reseed` recompute it.

use crate::snapshot::{check_magic, parse_exact_f64};
use fullview_core::canon::{moved_fingerprint, network_fingerprint, CanonicalHasher};
use fullview_deploy::deploy_uniform;
use fullview_geom::Point;
use fullview_model::{CameraNetwork, NetworkProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The first line of every journal file.
pub const WAL_MAGIC: &str = "# fullview wal v2";

/// The mutation a journal record re-applies on replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalOp {
    /// `fail id=…` — remove one camera.
    Fail {
        /// The camera index at the time of the mutation.
        id: usize,
    },
    /// `move id=… x=… y=…` — relocate one camera.
    Move {
        /// The camera index at the time of the mutation.
        id: usize,
        /// Target x (journaled as exact bits).
        x: f64,
        /// Target y (journaled as exact bits).
        y: f64,
    },
    /// `reseed seed=… n=…` — regenerate the fleet deterministically.
    Reseed {
        /// Deployment seed.
        seed: u64,
        /// Fleet size.
        n: usize,
    },
}

/// One journal record: the mutation plus the network fingerprint of the
/// state it was applied on top of.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Canonical network fingerprint *before* the mutation.
    pub pre_fp: u64,
    /// The mutation itself.
    pub op: WalOp,
}

impl WalRecord {
    /// Serializes the record payload (the checksummed part of the line).
    #[must_use]
    pub fn to_payload(&self) -> String {
        match &self.op {
            WalOp::Fail { id } => format!("fail pre={} id={id}", self.pre_fp),
            WalOp::Move { id, x, y } => format!(
                "move pre={} id={id} x=0x{:016x} y=0x{:016x}",
                self.pre_fp,
                x.to_bits(),
                y.to_bits()
            ),
            WalOp::Reseed { seed, n } => format!("reseed pre={} seed={seed} n={n}", self.pre_fp),
        }
    }

    /// Parses a record payload.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown op, missing or malformed
    /// fields.
    pub fn from_payload(payload: &str) -> Result<WalRecord, String> {
        let mut tokens = payload.split_whitespace();
        let op = tokens.next().ok_or("empty record")?;
        let mut field = |name: &str| -> Result<String, String> {
            let tok = tokens
                .next()
                .ok_or_else(|| format!("record '{payload}': missing field '{name}'"))?;
            tok.strip_prefix(&format!("{name}="))
                .map(String::from)
                .ok_or_else(|| format!("record '{payload}': want '{name}=', got '{tok}'"))
        };
        let pre_fp: u64 = field("pre")?
            .parse()
            .map_err(|e| format!("bad pre fingerprint: {e}"))?;
        let op = match op {
            "fail" => WalOp::Fail {
                id: field("id")?.parse().map_err(|e| format!("bad id: {e}"))?,
            },
            "move" => WalOp::Move {
                id: field("id")?.parse().map_err(|e| format!("bad id: {e}"))?,
                x: parse_exact_f64(&field("x")?)?,
                y: parse_exact_f64(&field("y")?)?,
            },
            "reseed" => WalOp::Reseed {
                seed: field("seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?,
                n: field("n")?.parse().map_err(|e| format!("bad n: {e}"))?,
            },
            other => return Err(format!("unknown journal op '{other}'")),
        };
        Ok(WalRecord { pre_fp, op })
    }
}

/// The pinned FNV-1a checksum of a record payload.
fn checksum(payload: &str) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str(payload);
    h.finish()
}

/// Frames one record as its on-disk line (without the trailing newline).
fn frame(payload: &str) -> String {
    format!("{} {:016x} {payload}", payload.len(), checksum(payload))
}

/// The journal's sibling path for a snapshot base path:
/// `<snapshot>.wal`.
#[must_use]
pub fn wal_path_for(base: &Path) -> PathBuf {
    let mut os = base.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// The outcome of scanning a journal file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Whether a torn (checksum/length-failed) final record was dropped.
    pub torn_tail: bool,
    /// Byte length of the valid prefix (magic + intact records) — the
    /// writer truncates the file to this before appending.
    pub valid_len: u64,
}

/// Scans journal text into records, tolerating a torn tail.
///
/// # Errors
///
/// A human-readable message for a bad magic line or for corruption in
/// the middle of the file (an invalid record with valid data after it).
pub fn scan_wal_text(text: &str) -> Result<WalScan, String> {
    let mut scan = WalScan::default();
    if text.is_empty() {
        return Ok(scan);
    }
    check_magic(text.lines().next(), WAL_MAGIC, "journal")?;
    let Some(rest) = text
        .strip_prefix(WAL_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
    else {
        return Err(format!("not a journal (want first line '{WAL_MAGIC}')"));
    };
    scan.valid_len = (WAL_MAGIC.len() + 1) as u64;
    let mut offset = scan.valid_len;
    let mut bad: Option<String> = None;
    for line in rest.split_inclusive('\n') {
        let line_len = line.len() as u64;
        let line = line.strip_suffix('\n');
        if let Some(reason) = &bad {
            // Valid-looking or not, data after a bad record means the
            // corruption is not a torn tail.
            return Err(format!(
                "journal corrupted mid-file at byte {offset}: {reason}"
            ));
        }
        match line.map_or(Err("record has no newline".to_string()), parse_record_line) {
            Ok(rec) => {
                scan.records.push(rec);
                offset += line_len;
                scan.valid_len = offset;
            }
            Err(reason) => {
                scan.torn_tail = true;
                bad = Some(reason);
                offset += line_len;
            }
        }
    }
    Ok(scan)
}

/// Parses one complete `<len> <fnv> <payload>` record line.
fn parse_record_line(line: &str) -> Result<WalRecord, String> {
    let (len_str, rest) = line
        .split_once(' ')
        .ok_or_else(|| format!("malformed record line '{line}'"))?;
    let (sum_str, payload) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed record line '{line}'"))?;
    let len: usize = len_str
        .parse()
        .map_err(|e| format!("bad record length '{len_str}': {e}"))?;
    if payload.len() != len {
        return Err(format!(
            "record length mismatch: framed {len}, got {} bytes",
            payload.len()
        ));
    }
    let sum =
        u64::from_str_radix(sum_str, 16).map_err(|e| format!("bad checksum '{sum_str}': {e}"))?;
    if sum != checksum(payload) {
        return Err(format!("record checksum mismatch for '{payload}'"));
    }
    WalRecord::from_payload(payload)
}

/// Reads and scans a journal file. A missing file is an empty journal.
///
/// # Errors
///
/// The read error's display form, or any [`scan_wal_text`] error.
pub fn read_wal(path: &Path) -> Result<WalScan, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    scan_wal_text(&text)
}

/// A journal op checked against the fleet it will mutate:
/// [`commit_op`] applies it without any way left to fail.
#[derive(Debug)]
pub(crate) enum Prepared {
    /// Remove the camera at this (in-range) index.
    Fail(usize),
    /// Relocate the camera at this (in-range) index.
    Move(usize, Point),
    /// Replace the fleet with this freshly deployed one.
    Reseed(CameraNetwork),
}

/// The fallible half of [`apply_op`]: checks the op against `net` (the
/// camera id is in range, the target finite, the fleet size positive)
/// and runs a reseed's deployment, without mutating anything. The daemon
/// journals an op only after this succeeds.
///
/// # Errors
///
/// The message naming why the op cannot apply.
pub(crate) fn prepare_op(
    profile: &NetworkProfile,
    net: &CameraNetwork,
    op: &WalOp,
) -> Result<Prepared, String> {
    let in_range = |id: usize| {
        if id < net.len() {
            Ok(id)
        } else {
            Err(format!("no camera with id {id} (fleet has {})", net.len()))
        }
    };
    match *op {
        WalOp::Fail { id } => Ok(Prepared::Fail(in_range(id)?)),
        WalOp::Move { x, y, .. } if !x.is_finite() || !y.is_finite() => {
            Err("x and y must be finite".to_string())
        }
        WalOp::Move { id, x, y } => Ok(Prepared::Move(in_range(id)?, Point::new(x, y))),
        WalOp::Reseed { n: 0, .. } => Err("n must be positive".to_string()),
        WalOp::Reseed { seed, n } => {
            let mut rng = StdRng::seed_from_u64(seed);
            deploy_uniform(*net.torus(), profile, n, &mut rng)
                .map(Prepared::Reseed)
                .map_err(|e| e.to_string())
        }
    }
}

/// The infallible half of [`apply_op`]: mutates `net` as prepared
/// against it and returns its fingerprint, given `net_fp`, the
/// fingerprint before. A `move` updates it in O(1)
/// ([`moved_fingerprint`]); a `fail` shifts every later camera's index,
/// and a `reseed` replaces the fleet, so both recompute it.
pub(crate) fn commit_op(net: &mut CameraNetwork, net_fp: u64, prepared: Prepared) -> u64 {
    match prepared {
        Prepared::Fail(id) => {
            net.remove_camera(id);
            network_fingerprint(net)
        }
        Prepared::Move(id, to) => {
            let before = net.cameras()[id];
            net.move_camera(id, to);
            let net_fp = moved_fingerprint(net_fp, id, &before, &net.cameras()[id]);
            debug_assert_eq!(net_fp, network_fingerprint(net), "maintained fingerprint");
            net_fp
        }
        Prepared::Reseed(fresh) => {
            *net = fresh;
            network_fingerprint(net)
        }
    }
}

/// Applies one journal op to a network whose fingerprint is `net_fp`:
/// `prepare_op` then `commit_op`, the two halves a live mutation runs
/// around its journal append. Returns the fingerprint after the op.
///
/// # Errors
///
/// A message when the op cannot apply (e.g. a camera id out of range) —
/// on replay this means the journal diverged from the snapshot.
pub fn apply_op(
    profile: &NetworkProfile,
    net: &mut CameraNetwork,
    net_fp: u64,
    op: &WalOp,
) -> Result<u64, String> {
    let prepared = prepare_op(profile, net, op)?;
    Ok(commit_op(net, net_fp, prepared))
}

/// What a replay did: how many records it applied and how many it
/// skipped as already contained in the restored snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records re-applied.
    pub applied: usize,
    /// Leading records skipped (snapshot already contained them).
    pub skipped: usize,
}

/// Replays journal records onto a restored network.
///
/// The resume point is found by fingerprint: leading records whose
/// `pre` fingerprint doesn't match the current state were already
/// folded into the snapshot (the crash-between-snapshot-and-truncate
/// window) and are skipped; from the first matching record on, every
/// record's `pre` must chain onto the fingerprint left by the previous
/// one — a break means the journal and snapshot diverged.
///
/// # Errors
///
/// A message when the chain breaks or an op fails to apply.
pub fn replay_onto(
    profile: &NetworkProfile,
    net: &mut CameraNetwork,
    records: &[WalRecord],
) -> Result<ReplayStats, String> {
    let mut fp = network_fingerprint(net);
    let mut stats = ReplayStats {
        applied: 0,
        skipped: 0,
    };
    let mut chained = false;
    for (i, rec) in records.iter().enumerate() {
        if !chained {
            if rec.pre_fp == fp {
                chained = true;
            } else {
                stats.skipped += 1;
                continue;
            }
        } else if rec.pre_fp != fp {
            return Err(format!(
                "journal chain broken at record {i}: expected pre fingerprint {fp}, journal says {} (journal and snapshot diverged)",
                rec.pre_fp
            ));
        }
        fp = apply_op(profile, net, fp, &rec.op)
            .map_err(|e| format!("journal replay failed at record {i}: {e}"))?;
        stats.applied += 1;
    }
    Ok(stats)
}

/// The append side of the journal: an open file handle that fsyncs
/// every record before the caller is allowed to mutate the fleet.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Records currently in the journal (since the last truncation).
    records: u64,
    /// Records appended over the writer's lifetime.
    appended: u64,
    /// Truncations (snapshot checkpoints) over the writer's lifetime.
    truncations: u64,
}

impl WalWriter {
    /// Opens the journal for appending after a scan: the file is
    /// truncated to `scan.valid_len` (dropping a torn tail record) and
    /// positioned at its end. A fresh or empty journal gets the magic
    /// line written and synced.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: &Path, scan: &WalScan) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let writer = if scan.valid_len == 0 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut w = WalWriter {
                file,
                path: path.to_path_buf(),
                records: 0,
                appended: 0,
                truncations: 0,
            };
            w.write_magic()?;
            w
        } else {
            file.set_len(scan.valid_len)?;
            file.seek(SeekFrom::Start(scan.valid_len))?;
            file.sync_data()?;
            WalWriter {
                file,
                path: path.to_path_buf(),
                records: scan.records.len() as u64,
                appended: 0,
                truncations: 0,
            }
        };
        writer.file.sync_data()?;
        Ok(writer)
    }

    fn write_magic(&mut self) -> io::Result<()> {
        self.file.write_all(WAL_MAGIC.as_bytes())?;
        self.file.write_all(b"\n")?;
        Ok(())
    }

    /// Appends one record and fsyncs. Only after this returns may the
    /// caller apply the mutation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors — the caller must then *reject* the
    /// mutation (durability before availability).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let line = frame(&rec.to_payload());
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()?;
        self.records += 1;
        self.appended += 1;
        Ok(())
    }

    /// Truncates the journal back to just the magic line — the snapshot
    /// checkpoint step, called *after* the snapshot rename lands.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.write_magic()?;
        self.file.sync_data()?;
        self.records = 0;
        self.truncations += 1;
        Ok(())
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the journal.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records appended over the writer's lifetime.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Truncations over the writer's lifetime.
    #[must_use]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fullview_model::SensorSpec;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    fn profile() -> NetworkProfile {
        NetworkProfile::builder()
            .group(SensorSpec::new(0.15, PI / 2.0).unwrap(), 1.0)
            .build()
            .unwrap()
    }

    fn net(seed: u64, n: usize) -> CameraNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        deploy_uniform(fullview_geom::Torus::unit(), &profile(), n, &mut rng).unwrap()
    }

    fn record_stream(base: &CameraNetwork) -> (Vec<WalRecord>, CameraNetwork) {
        let profile = profile();
        let mut live = base.clone();
        let ops = vec![
            WalOp::Move {
                id: 3,
                x: 0.125,
                y: 0.7501,
            },
            WalOp::Fail { id: 1 },
            WalOp::Reseed { seed: 11, n: 9 },
            WalOp::Move {
                id: 0,
                x: 0.5,
                y: 0.5,
            },
        ];
        let mut records = Vec::new();
        let mut pre_fp = network_fingerprint(&live);
        for op in ops {
            records.push(WalRecord { pre_fp, op });
            pre_fp = apply_op(&profile, &mut live, pre_fp, &op).unwrap();
        }
        (records, live)
    }

    fn text_of(records: &[WalRecord]) -> String {
        let mut out = format!("{WAL_MAGIC}\n");
        for rec in records {
            out.push_str(&frame(&rec.to_payload()));
            out.push('\n');
        }
        out
    }

    #[test]
    fn records_roundtrip_through_payload_text() {
        let (records, _) = record_stream(&net(7, 10));
        for rec in &records {
            let back = WalRecord::from_payload(&rec.to_payload()).unwrap();
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn scan_accepts_a_full_journal_and_replay_reproduces_the_state() {
        let base = net(7, 10);
        let (records, expected) = record_stream(&base);
        let scan = scan_wal_text(&text_of(&records)).unwrap();
        assert_eq!(scan.records, records);
        assert!(!scan.torn_tail);
        let mut restored = base.clone();
        let stats = replay_onto(&profile(), &mut restored, &scan.records).unwrap();
        assert_eq!(stats.applied, records.len());
        assert_eq!(stats.skipped, 0);
        assert_eq!(
            network_fingerprint(&restored),
            network_fingerprint(&expected)
        );
    }

    #[test]
    fn torn_tail_is_dropped_and_valid_len_excludes_it() {
        let base = net(7, 10);
        let (records, _) = record_stream(&base);
        let text = text_of(&records);
        // Cut the last record's line short (simulating a crash mid-append).
        let cut = text.len() - 9;
        let scan = scan_wal_text(&text[..cut]).unwrap();
        assert_eq!(scan.records.len(), records.len() - 1);
        assert!(scan.torn_tail);
        assert!(text[..scan.valid_len as usize].ends_with('\n'));
        // The valid prefix rescans cleanly with no torn tail.
        let rescan = scan_wal_text(&text[..scan.valid_len as usize]).unwrap();
        assert_eq!(rescan.records, scan.records);
        assert!(!rescan.torn_tail);
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let base = net(7, 10);
        let (records, _) = record_stream(&base);
        let mut lines: Vec<String> = text_of(&records).lines().map(String::from).collect();
        // Flip a byte inside the second record's payload.
        lines[2] = lines[2].replace("pre=", "prX=");
        let corrupted = lines.join("\n") + "\n";
        let err = scan_wal_text(&corrupted).unwrap_err();
        assert!(err.contains("corrupted mid-file"), "{err}");
        // Bad magic is also a hard error.
        assert!(scan_wal_text("# something else\n").is_err());
        // Empty text is a fresh journal.
        assert!(scan_wal_text("").unwrap().records.is_empty());
    }

    #[test]
    fn a_v1_journal_is_refused_by_version() {
        let (records, _) = record_stream(&net(7, 10));
        let text = text_of(&records);
        assert!(text.starts_with("# fullview wal v2\n"));
        let v1 = text.replacen("# fullview wal v2", "# fullview wal v1", 1);
        let err = scan_wal_text(&v1).unwrap_err();
        assert!(err.contains("journal format v1 is not supported"), "{err}");
        assert!(err.contains("reads v2"), "{err}");
        // A v1 magic line alone (an empty v1 journal) is refused too.
        assert!(scan_wal_text("# fullview wal v1\n").is_err());
        let err = scan_wal_text("# fullview snapshot v2\n").unwrap_err();
        assert!(err.contains("not a journal"), "{err}");
    }

    /// One random op drawn from `(kind, pick, x, y)` against a fleet of
    /// `len` cameras: mostly moves (targets reach past the seams), some
    /// failures, an occasional reseed — and a reseed whenever the fleet
    /// is empty.
    fn op_from(len: usize, (kind, pick, x, y): (u8, f64, f64, f64)) -> WalOp {
        let id = ((pick * len as f64) as usize).min(len.saturating_sub(1));
        match kind {
            _ if len == 0 || kind == 9 => WalOp::Reseed {
                seed: (pick * 1e6) as u64,
                n: 1 + (x.abs() * 6.0) as usize,
            },
            0..=5 => WalOp::Move { id, x, y },
            _ => WalOp::Fail { id },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn maintained_fingerprint_tracks_every_op_and_replays(
            draws in prop::collection::vec(
                (0u8..10, 0.0..1.0f64, -1.5..2.5f64, -1.5..2.5f64),
                1..40,
            )
        ) {
            let profile = profile();
            let base = net(3, 12);
            let mut live = base.clone();
            let mut fp = network_fingerprint(&live);
            let mut records = Vec::new();
            for draw in draws {
                let op = op_from(live.len(), draw);
                let prepared = prepare_op(&profile, &live, &op).unwrap();
                let prior = match op {
                    WalOp::Move { id, .. } => Some((id, live.cameras()[id].position(), fp)),
                    _ => None,
                };
                records.push(WalRecord { pre_fp: fp, op });
                fp = commit_op(&mut live, fp, prepared);
                prop_assert_eq!(fp, network_fingerprint(&live), "after {:?}", op);
                // The inverse move restores the prior value exactly.
                if let Some((id, from, prior_fp)) = prior {
                    let mut undone = live.clone();
                    let back = WalOp::Move { id, x: from.x, y: from.y };
                    let undone_fp = apply_op(&profile, &mut undone, fp, &back).unwrap();
                    prop_assert_eq!(undone_fp, prior_fp, "undoing {:?}", op);
                }
            }
            // Replaying the live journal, through its text, reaches the
            // live value.
            let scan = scan_wal_text(&text_of(&records)).unwrap();
            let mut replayed = base.clone();
            let stats = replay_onto(&profile, &mut replayed, &scan.records).unwrap();
            prop_assert_eq!(stats.applied, records.len());
            prop_assert_eq!(network_fingerprint(&replayed), fp);
        }
    }

    #[test]
    fn replay_skips_records_already_folded_into_the_snapshot() {
        let base = net(7, 10);
        let (records, expected) = record_stream(&base);
        // Snapshot taken after 2 records, but the journal kept all 4
        // (crash between snapshot rename and journal truncate).
        let mut snapshot_state = base.clone();
        for rec in &records[..2] {
            apply_op(&profile(), &mut snapshot_state, rec.pre_fp, &rec.op).unwrap();
        }
        let stats = replay_onto(&profile(), &mut snapshot_state, &records).unwrap();
        assert_eq!(stats.skipped, 2);
        assert_eq!(stats.applied, 2);
        assert_eq!(
            network_fingerprint(&snapshot_state),
            network_fingerprint(&expected)
        );
        // Journal fully contained in the snapshot: everything skips.
        let (records2, final_state) = record_stream(&base);
        let mut done = final_state.clone();
        let stats = replay_onto(&profile(), &mut done, &records2).unwrap();
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.skipped, records2.len());
    }

    #[test]
    fn prepare_rejects_what_cannot_apply_and_leaves_the_fleet_alone() {
        let base = net(7, 10);
        let fp = network_fingerprint(&base);
        for (op, needle) in [
            (
                WalOp::Fail { id: 10 },
                "no camera with id 10 (fleet has 10)",
            ),
            (
                WalOp::Move {
                    id: 0,
                    x: f64::NAN,
                    y: 0.5,
                },
                "x and y must be finite",
            ),
            (WalOp::Reseed { seed: 1, n: 0 }, "n must be positive"),
        ] {
            let err = prepare_op(&profile(), &base, &op).unwrap_err();
            assert!(err.contains(needle), "{op:?}: {err}");
            let mut live = base.clone();
            assert!(apply_op(&profile(), &mut live, fp, &op).is_err());
            assert_eq!(network_fingerprint(&live), fp, "{op:?} mutated the fleet");
        }
    }

    #[test]
    fn replay_rejects_a_broken_chain() {
        let base = net(7, 10);
        let (mut records, _) = record_stream(&base);
        // Tamper with a mid-chain pre fingerprint.
        records[2].pre_fp ^= 1;
        let mut restored = base.clone();
        let err = replay_onto(&profile(), &mut restored, &records).unwrap_err();
        assert!(err.contains("chain broken"), "{err}");
    }

    #[test]
    fn writer_appends_syncs_and_truncates() {
        let dir = std::env::temp_dir().join(format!("fvc-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.snap.wal");
        let _ = std::fs::remove_file(&path);

        let base = net(7, 10);
        let (records, _) = record_stream(&base);
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty(), "missing file is an empty journal");
        let mut w = WalWriter::open(&path, &scan).unwrap();
        for rec in &records {
            w.append(rec).unwrap();
        }
        assert_eq!(w.records(), records.len() as u64);
        drop(w);

        // Reopen: the records are all there; a torn tail is cut off.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"13 deadbeef torn");
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.torn_tail);
        let mut w = WalWriter::open(&path, &scan).unwrap();
        let rescan = read_wal(&path).unwrap();
        assert!(!rescan.torn_tail, "open truncated the torn tail");
        assert_eq!(rescan.records, records);

        // Truncation resets to just the magic.
        w.truncate().unwrap();
        assert_eq!(w.records(), 0);
        assert_eq!(w.truncations(), 1);
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        // And appending after a truncate works.
        w.append(&records[0]).unwrap();
        assert_eq!(read_wal(&path).unwrap().records, vec![records[0].clone()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
