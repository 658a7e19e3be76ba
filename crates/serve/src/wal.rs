//! The checksummed, append-only write-ahead log behind `fracdram-serve`.
//!
//! Every die-routed request the daemon *executes* is journaled before
//! its response is acknowledged to the client ("acknowledge-after-log"):
//! a shard drains a batch, executes it, appends one entry per reply to
//! its own WAL file, `fsync`s **once per drain** (batched durability),
//! and only then writes the response lines to the sockets. A crash at
//! any instant therefore loses no acknowledged mutation — the WAL holds
//! a superset of everything any client was told succeeded.
//!
//! Why the log carries *all* executed die-routed requests rather than
//! only the obviously-mutating ones: in this simulator every die-routed
//! op advances the die's controller clock (leakage is time-dependent)
//! and consumes a per-die sequence number, and breaker rejections
//! advance the breaker countdown — so the per-die request sequence *is*
//! the die state. That is exactly the replay contract PR 6 proved
//! (`run_replay`), which is what makes startup recovery exact by
//! construction: replaying the sealed log through the single-threaded
//! replay path reconstructs die state, enrollments, generations, and
//! breaker phases byte-identically.
//!
//! ## On-disk format
//!
//! One text file per shard (`wal-shard-<k>.log`), line-oriented so a
//! torn tail is recoverable by inspection:
//!
//! ```text
//! fracdram-wal v1 <config fingerprint>
//! E <die> <seq> <fnv1a64 hex> <canonical request JSON>
//! ...
//! S <entry count> <running-xor of entry checksums, hex>
//! ```
//!
//! Each `E` line's checksum covers `"<die> <seq> <json>"`; a mismatch,
//! a malformed line, or a missing trailing newline marks the **torn
//! tail** — everything before it is intact (entries are appended in
//! order and fsynced front to back), everything from it on is
//! discarded and counted in [`WalShard::torn`]. The `S` seal line is
//! written only on graceful drain; its absence tells recovery the
//! previous process died hard (reported, not fatal). The fingerprint
//! pins every config knob that shapes the response stream (seed, dies,
//! shards, columns, group, fault limit, breaker, chaos); recovery
//! refuses a log written under a different one instead of silently
//! reconstructing different silicon.
//!
//! ## Known limitation: the log only grows
//!
//! "Compaction" here rewrites the log without the stale seal — it does
//! not shrink it. Die state is defined as the full per-die request
//! sequence (that is what makes recovery exact with no snapshot
//! format), so every journaled entry stays live forever: log size and
//! recovery time grow linearly with requests served, and every restart
//! replays the entire history. Bounding this needs a die-state
//! checkpoint (serialize die state + seq watermark, truncate entries
//! below the watermark) — an explicit non-goal for now, tracked in
//! ROADMAP.md; deployments that restart periodically should budget for
//! replay time proportional to total journaled traffic.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Fsyncs a directory so entries created (or renamed) inside it are
/// durable. `sync_data` on a file makes its *bytes* durable; without
/// this the directory entry itself can vanish across a power loss,
/// taking the fully-fsynced log with it.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

use crate::pool::ServeConfig;

/// FNV-1a 64-bit, the repo's standing cheap content hash (same family
/// as `softmc::compiled::program_hash`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a64::new();
    hash.update(bytes);
    hash.0
}

/// Streaming FNV-1a 64: as a `fmt::Write` sink it hashes formatted text
/// piece by piece, with the same result as hashing the whole string.
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Checksum of one entry: FNV-1a 64 of `"{die} {seq} {request}"`.
fn entry_checksum(die: usize, seq: u64, request: &str) -> u64 {
    let mut hash = Fnv1a64::new();
    write!(hash, "{die} {seq} {request}").expect("hashing cannot fail");
    hash.0
}

/// Appends one entry's line to `out` and returns its checksum.
fn push_entry(out: &mut String, die: usize, seq: u64, request: &str) -> u64 {
    let checksum = entry_checksum(die, seq, request);
    writeln!(out, "E {die} {seq} {checksum:016x} {request}")
        .expect("writing to a String cannot fail");
    checksum
}

/// One journaled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Die the request was routed to.
    pub die: usize,
    /// Per-die sequence number the executing shard assigned.
    pub seq: u64,
    /// The canonical request line ([`crate::Request::canonical`]).
    pub request: String,
}

impl WalEntry {
    fn checksum(&self) -> u64 {
        entry_checksum(self.die, self.seq, &self.request)
    }
}

/// The WAL file path for one shard.
pub fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-shard-{shard}.log"))
}

/// The config fingerprint pinned in every WAL header: the exact knobs
/// that shape the recorded response stream. Two configs with equal
/// fingerprints replay a log identically; recovery refuses anything
/// else.
pub fn fingerprint(cfg: &ServeConfig) -> String {
    let chaos = match &cfg.chaos {
        None => "off".to_string(),
        Some(spec) => format!(
            "{}:{}:{}:{}:{}",
            spec.seed,
            spec.config.die_fail,
            spec.config.drop,
            spec.config.stall,
            spec.config.stall_ms
        ),
    };
    format!(
        "group={} dies={} shards={} cols={} seed={} fault-limit={} breaker={}:{} chaos={}",
        cfg.group,
        cfg.dies,
        cfg.shards.max(1),
        cfg.columns,
        cfg.seed,
        cfg.fault_limit,
        cfg.breaker.trip,
        cfg.breaker.open,
        chaos
    )
}

/// Appends entries for one shard, fsync-batched per drain.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    pending: String,
    /// Entries durably committed so far.
    entries: u64,
    /// Running xor of committed entry checksums (sealed into `S`).
    acc: u64,
    /// Bytes durably committed so far (header included).
    bytes: u64,
}

impl WalWriter {
    /// Creates the shard's WAL with `recovered` as the compacted
    /// prefix — the entries recovery replayed, rewritten so the file is
    /// again `[header, entries...]` with no stale seal. Pass an empty
    /// slice for a fresh log.
    ///
    /// The rewrite is crash-atomic: the compacted log is written and
    /// fsynced as `wal-shard-<k>.log.tmp`, `rename`d over the old log,
    /// and the directory is fsynced — so the previous durable log
    /// survives on disk until the replacement is fully durable, and the
    /// new file's directory entry survives a power loss. A crash at any
    /// point leaves either the old log or the new one, never a
    /// truncated prefix.
    ///
    /// # Errors
    ///
    /// Propagates file creation / write / sync / rename failures.
    pub fn create(
        dir: &Path,
        shard: usize,
        cfg: &ServeConfig,
        recovered: &[WalEntry],
    ) -> std::io::Result<WalWriter> {
        let path = shard_path(dir, shard);
        let tmp = path.with_extension("log.tmp");
        let mut file = File::create(&tmp)?;
        let mut text = format!("fracdram-wal v1 {}\n", fingerprint(cfg));
        let mut acc = 0u64;
        for entry in recovered {
            acc ^= push_entry(&mut text, entry.die, entry.seq, &entry.request);
        }
        file.write_all(text.as_bytes())?;
        file.sync_data()?;
        std::fs::rename(&tmp, &path)?;
        sync_dir(dir)?;
        // The open handle follows the rename; appends land in the
        // now-durable final file.
        Ok(WalWriter {
            file,
            pending: String::new(),
            entries: recovered.len() as u64,
            acc,
            bytes: text.len() as u64,
        })
    }

    /// Stages one entry; nothing is durable until [`WalWriter::commit`].
    pub fn log(&mut self, die: usize, seq: u64, request: &str) {
        self.acc ^= push_entry(&mut self.pending, die, seq, request);
        self.entries += 1;
    }

    /// Writes and fsyncs everything staged since the last commit (one
    /// write + one sync per shard drain), returning the bytes flushed.
    ///
    /// # Errors
    ///
    /// Propagates write / sync failures; the daemon treats either as
    /// fatal for the shard rather than acknowledging undurable work.
    pub fn commit(&mut self) -> std::io::Result<u64> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let n = self.pending.len() as u64;
        self.file.write_all(self.pending.as_bytes())?;
        self.file.sync_data()?;
        self.pending.clear();
        self.bytes += n;
        Ok(n)
    }

    /// Entries committed (or staged) so far.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Bytes durably committed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Graceful-drain seal: commits anything pending, then appends the
    /// `S` record and fsyncs. A sealed log is the "clean shutdown"
    /// witness; recovery reports (but does not require) it.
    ///
    /// # Errors
    ///
    /// Propagates write / sync failures.
    pub fn seal(mut self) -> std::io::Result<()> {
        self.commit()?;
        self.file
            .write_all(format!("S {} {:016x}\n", self.entries, self.acc).as_bytes())?;
        self.file.sync_data()
    }
}

/// One shard's WAL as read back at recovery.
#[derive(Debug, Default)]
pub struct WalShard {
    /// Intact entries, in append (= per-die seq) order.
    pub entries: Vec<WalEntry>,
    /// Whether the log ends with a valid seal (graceful drain).
    pub sealed: bool,
    /// Lines discarded at the torn tail (checksum mismatch, malformed
    /// line, or missing trailing newline after a hard kill).
    pub torn: usize,
}

/// Reads one shard WAL back, verifying the header fingerprint and every
/// entry checksum. Stops at the first damaged line: entries are
/// appended and fsynced strictly in order, so everything before the
/// first bad line is intact and everything after it is untrusted.
///
/// # Errors
///
/// Returns a message when the file cannot be read, the header is
/// missing, or the fingerprint does not match `expect_fingerprint`.
pub fn read_shard(path: &Path, expect_fingerprint: &str) -> Result<WalShard, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut lines = text.split_inclusive('\n');
    let header = lines
        .next()
        .ok_or_else(|| format!("{}: empty WAL (no header)", path.display()))?;
    let expect_header = format!("fracdram-wal v1 {expect_fingerprint}\n");
    if header != expect_header {
        return Err(format!(
            "{}: WAL fingerprint mismatch\n  found:    {}\n  expected: {}",
            path.display(),
            header.trim_end(),
            expect_header.trim_end()
        ));
    }
    let mut shard = WalShard::default();
    let mut acc = 0u64;
    let mut rest = 0usize;
    for (index, line) in lines.enumerate() {
        if !line.ends_with('\n') {
            // Torn tail: the process died mid-append. Everything from
            // here on is untrusted.
            rest += 1;
            continue;
        }
        if rest > 0 {
            rest += 1;
            continue;
        }
        match parse_line(line.trim_end_matches('\n')) {
            Some(WalLine::Entry(entry)) => {
                acc ^= entry.checksum();
                shard.entries.push(entry);
            }
            Some(WalLine::Seal { count, checksum }) => {
                if count == shard.entries.len() as u64 && checksum == acc {
                    shard.sealed = true;
                } else {
                    eprintln!(
                        "fracdram-wal: {} line {}: seal does not cover the entries \
                         (claims {count}, file has {}); treating as unsealed",
                        path.display(),
                        index + 2,
                        shard.entries.len()
                    );
                }
                // Anything after a seal is untrusted (a crashed
                // compaction); stop trusting from here.
                rest += 1;
            }
            None => {
                eprintln!(
                    "fracdram-wal: {} line {}: damaged entry, truncating recovery here",
                    path.display(),
                    index + 2
                );
                rest += 1;
            }
        }
    }
    // The seal line itself is not "torn"; every other distrusted line is.
    shard.torn = rest.saturating_sub(usize::from(shard.sealed));
    Ok(shard)
}

enum WalLine {
    Entry(WalEntry),
    Seal { count: u64, checksum: u64 },
}

fn parse_line(line: &str) -> Option<WalLine> {
    let mut parts = line.splitn(4, ' ');
    match parts.next()? {
        "E" => {
            let die: usize = parts.next()?.parse().ok()?;
            let seq: u64 = parts.next()?.parse().ok()?;
            let rest = parts.next()?;
            let (checksum_hex, request) = rest.split_once(' ')?;
            let checksum = u64::from_str_radix(checksum_hex, 16).ok()?;
            (entry_checksum(die, seq, request) == checksum).then(|| {
                WalLine::Entry(WalEntry {
                    die,
                    seq,
                    request: request.to_string(),
                })
            })
        }
        "S" => {
            let count: u64 = parts.next()?.parse().ok()?;
            let checksum = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some(WalLine::Seal { count, checksum })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fracdram-wal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(die: usize, seq: u64, op: &str) -> WalEntry {
        WalEntry {
            die,
            seq,
            request: format!(r#"{{"op":"{op}","die":{die},"bank":0,"row":0}}"#),
        }
    }

    #[test]
    fn round_trips_and_seals() {
        let dir = tmp_dir("roundtrip");
        let cfg = ServeConfig::default();
        let mut writer = WalWriter::create(&dir, 0, &cfg, &[]).unwrap();
        writer.log(0, 0, r#"{"op":"read","die":0,"bank":0,"row":0}"#);
        writer.log(2, 0, r#"{"op":"read","die":2,"bank":0,"row":1}"#);
        assert!(writer.commit().unwrap() > 0);
        writer.log(0, 1, r#"{"op":"read","die":0,"bank":0,"row":2}"#);
        writer.commit().unwrap();
        writer.seal().unwrap();

        let shard = read_shard(&shard_path(&dir, 0), &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 3);
        assert!(shard.sealed);
        assert_eq!(shard.torn, 0);
        assert_eq!(shard.entries[1].die, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsealed_log_reads_back_and_compaction_restores_it() {
        let dir = tmp_dir("unsealed");
        let cfg = ServeConfig::default();
        let mut writer = WalWriter::create(&dir, 1, &cfg, &[]).unwrap();
        writer.log(1, 0, r#"{"op":"read","die":1,"bank":0,"row":0}"#);
        writer.commit().unwrap();
        drop(writer); // hard kill: no seal

        let shard = read_shard(&shard_path(&dir, 1), &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 1);
        assert!(!shard.sealed);

        // Compaction: recreate from the recovered entries, then append.
        let mut writer = WalWriter::create(&dir, 1, &cfg, &shard.entries).unwrap();
        assert_eq!(writer.entries(), 1);
        writer.log(1, 1, r#"{"op":"read","die":1,"bank":0,"row":1}"#);
        writer.commit().unwrap();
        writer.seal().unwrap();
        let shard = read_shard(&shard_path(&dir, 1), &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 2);
        assert!(shard.sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let dir = tmp_dir("torn");
        let cfg = ServeConfig::default();
        let mut writer = WalWriter::create(&dir, 0, &cfg, &[entry(0, 0, "read")]).unwrap();
        writer.commit().unwrap();
        drop(writer);
        // Simulate a torn append: a corrupt line and a partial line.
        let path = shard_path(&dir, 0);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"E 0 1 0000000000000000 {\"op\":\"read\"}\nE 0 2 12")
            .unwrap();
        drop(file);

        let shard = read_shard(&path, &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 1, "intact prefix survives");
        assert_eq!(shard.torn, 2, "both damaged lines counted");
        assert!(!shard.sealed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_renames_atomically_and_ignores_stale_tmp() {
        let dir = tmp_dir("atomic");
        let cfg = ServeConfig::default();
        let path = shard_path(&dir, 0);
        let tmp = path.with_extension("log.tmp");

        // A crash between writing the tmp and renaming it leaves a
        // stale tmp behind; the next create must overwrite it and the
        // old durable log must still read back in between.
        let mut writer = WalWriter::create(&dir, 0, &cfg, &[]).unwrap();
        writer.log(0, 0, r#"{"op":"read","die":0,"bank":0,"row":0}"#);
        writer.commit().unwrap();
        drop(writer); // hard kill: no seal
        std::fs::write(&tmp, b"garbage from a crashed compaction\n").unwrap();

        let shard = read_shard(&path, &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 1, "stale tmp must not shadow the log");

        let writer = WalWriter::create(&dir, 0, &cfg, &shard.entries).unwrap();
        assert!(!tmp.exists(), "compaction must consume its tmp file");
        assert_eq!(writer.entries(), 1);
        drop(writer);
        let shard = read_shard(&path, &fingerprint(&cfg)).unwrap();
        assert_eq!(shard.entries.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let dir = tmp_dir("fpr");
        let cfg = ServeConfig::default();
        let writer = WalWriter::create(&dir, 0, &cfg, &[]).unwrap();
        drop(writer);
        let other = ServeConfig {
            seed: cfg.seed ^ 1,
            ..ServeConfig::default()
        };
        let err = read_shard(&shard_path(&dir, 0), &fingerprint(&other)).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_lines_hash_and_render_the_formatted_request() {
        let request = r#"{"op":"write","die":3,"bank":1,"row":7,"bits":"01"}"#;
        let mut line = String::new();
        let checksum = push_entry(&mut line, 3, 42, request);
        let whole = fnv1a64(format!("3 42 {request}").as_bytes());
        assert_eq!(checksum, whole);
        assert_eq!(line, format!("E 3 42 {whole:016x} {request}\n"));
    }
}
