//! Crash-consistent checkpoint storage.
//!
//! Every record a [`CheckpointStore`] writes is *framed*: a magic tag, the
//! payload length and an FNV-1a checksum precede the payload, and the frame
//! lands via write-to-temp + atomic rename. On read, any framing violation
//! — torn tail, flipped bytes, wrong length, stray file — is detected,
//! counted (`service.store.corrupt`), and the offending file is moved into
//! a quarantine directory (`service.store.quarantined`) so the caller can
//! restart from its last good state. A corrupt checkpoint therefore costs
//! recomputation, never a panic and never a wrong result.

use crate::fault::{FaultKind, FaultPlan};
use autolock_obs::manifest::fnv1a;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame magic: identifies a well-formed store record.
const MAGIC: &[u8; 8] = b"ALCKPT01";

/// Frames a payload: magic + LE length + LE checksum + payload. The
/// checksum is FNV-1a — cheap, dependency-free, and plenty to catch torn
/// writes and bit flips (this is corruption *detection*, not crypto).
pub(crate) fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unframes a record; `None` on any violation (bad magic, short header,
/// length mismatch — including trailing garbage — or checksum mismatch).
pub(crate) fn decode_record(bytes: &[u8]) -> Option<Vec<u8>> {
    if bytes.len() < 24 || &bytes[..8] != MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().ok()?) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let payload = &bytes[24..];
    if payload.len() != len || fnv1a(payload) != sum {
        return None;
    }
    Some(payload.to_vec())
}

/// Result of a [`CheckpointStore::read`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRead {
    /// The record decoded cleanly; here is its payload.
    Ok(Vec<u8>),
    /// No record with that name exists.
    Absent,
    /// A file existed but its framing was violated; it has been moved into
    /// the quarantine directory. Treat as absent and recompute.
    Corrupt,
}

/// A directory of framed, atomically-replaced records with corrupt-record
/// quarantine. Used for SAT/GA job checkpoints and (via
/// [`crate::ModelRegistry`]) cached models.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    quarantine: PathBuf,
    faults: Arc<FaultPlan>,
}

impl CheckpointStore {
    /// Opens (creating as needed) a store rooted at `dir` with its
    /// quarantine at `quarantine`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, quarantine: &Path, faults: Arc<FaultPlan>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        fs::create_dir_all(quarantine)?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
            quarantine: quarantine.to_path_buf(),
            faults,
        })
    }

    /// The on-disk path of a record.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// `true` when a record file with that name exists (framed or not).
    pub fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }

    /// Writes a record: frame, then temp-file + atomic rename, so a kill at
    /// any point leaves either the previous record or the new one — never a
    /// half-written frame under the record's name. Injected faults damage
    /// the frame the way a real kill or bad disk would; the damage is then
    /// caught on the next [`CheckpointStore::read`].
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn write(&self, name: &str, payload: &[u8]) -> io::Result<()> {
        let mut framed = encode_record(payload);
        match self.faults.check(&format!("store.write:{name}")) {
            Some(FaultKind::TornWrite) => framed.truncate(framed.len() / 2),
            Some(FaultKind::CorruptBytes) => {
                let mid = framed.len() / 2;
                framed[mid] ^= 0xFF;
            }
            Some(FaultKind::ReadError) => {
                return Err(io::Error::other(format!("injected write error: {name}")))
            }
            Some(FaultKind::Panic) => panic!("injected fault: panic in store.write:{name}"),
            None => {}
        }
        let tmp = self.dir.join(format!(".{name}.tmp"));
        fs::write(&tmp, framed)?;
        fs::rename(&tmp, self.path(name))
    }

    /// Reads and unframes a record. A missing file is [`StoreRead::Absent`];
    /// a framing violation quarantines the file and returns
    /// [`StoreRead::Corrupt`].
    ///
    /// # Errors
    ///
    /// Only genuine read I/O errors (permissions, injected read faults) —
    /// corruption is *not* an error, it is a detected, quarantined state.
    pub fn read(&self, name: &str) -> io::Result<StoreRead> {
        if let Some(kind) = self.faults.check(&format!("store.read:{name}")) {
            if kind == FaultKind::ReadError {
                return Err(io::Error::other(format!("injected read error: {name}")));
            }
        }
        let bytes = match fs::read(self.path(name)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(StoreRead::Absent),
            Err(e) => return Err(e),
        };
        match decode_record(&bytes) {
            Some(payload) => Ok(StoreRead::Ok(payload)),
            None => {
                autolock_obs::counter("service.store.corrupt").incr();
                self.quarantine_file(name)?;
                Ok(StoreRead::Corrupt)
            }
        }
    }

    /// Removes a record if present (e.g. a finished job's checkpoint).
    ///
    /// # Errors
    ///
    /// Propagates removal failures other than the file being absent.
    pub fn remove(&self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Moves a record into the quarantine directory (deduplicating the
    /// target name with a numeric suffix) and publishes
    /// `service.store.quarantined`.
    ///
    /// # Errors
    ///
    /// Propagates rename failures other than the source being absent.
    pub fn quarantine_file(&self, name: &str) -> io::Result<()> {
        let src = self.path(name);
        let mut dst = self.quarantine.join(name);
        let mut n = 1u32;
        while dst.exists() {
            dst = self.quarantine.join(format!("{name}.{n}"));
            n += 1;
        }
        match fs::rename(&src, &dst) {
            Ok(()) => {
                autolock_obs::counter("service.store.quarantined").incr();
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Writes raw (pre-framed or foreign) bytes into quarantine under
    /// `name`, for callers that detect corruption at a higher layer.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn quarantine_bytes(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut dst = self.quarantine.join(name);
        let mut n = 1u32;
        while dst.exists() {
            dst = self.quarantine.join(format!("{name}.{n}"));
            n += 1;
        }
        fs::write(&dst, bytes)?;
        autolock_obs::counter("service.store.quarantined").incr();
        Ok(())
    }

    /// The quarantine directory.
    pub fn quarantine_dir(&self) -> &Path {
        &self.quarantine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autolock-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path, faults: Arc<FaultPlan>) -> CheckpointStore {
        CheckpointStore::open(&dir.join("store"), &dir.join("q"), faults).unwrap()
    }

    #[test]
    fn round_trips_and_reports_absent() {
        let dir = scratch("rt");
        let store = open(&dir, FaultPlan::none());
        assert_eq!(store.read("a").unwrap(), StoreRead::Absent);
        store.write("a", b"payload bytes").unwrap();
        assert_eq!(
            store.read("a").unwrap(),
            StoreRead::Ok(b"payload bytes".to_vec())
        );
        store.remove("a").unwrap();
        assert_eq!(store.read("a").unwrap(), StoreRead::Absent);
    }

    #[test]
    fn torn_record_is_detected_and_quarantined() {
        let dir = scratch("torn");
        let store = open(&dir, FaultPlan::none());
        store.write("a", b"some checkpoint payload").unwrap();
        let path = store.path("a");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(store.read("a").unwrap(), StoreRead::Corrupt);
        assert!(!path.exists(), "corrupt record must be moved away");
        assert!(store.quarantine_dir().join("a").exists());
        // After quarantine the name reads as absent: restart from scratch.
        assert_eq!(store.read("a").unwrap(), StoreRead::Absent);
    }

    #[test]
    fn flipped_byte_and_foreign_file_are_corrupt() {
        let dir = scratch("flip");
        let store = open(&dir, FaultPlan::none());
        store.write("a", b"0123456789").unwrap();
        let path = store.path("a");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.read("a").unwrap(), StoreRead::Corrupt);

        fs::write(store.path("b"), b"not a framed record at all").unwrap();
        assert_eq!(store.read("b").unwrap(), StoreRead::Corrupt);
        // Quarantine names deduplicate.
        fs::write(store.path("b"), b"again").unwrap();
        assert_eq!(store.read("b").unwrap(), StoreRead::Corrupt);
        assert!(store.quarantine_dir().join("b").exists());
        assert!(store.quarantine_dir().join("b.1").exists());
    }

    #[test]
    fn injected_faults_damage_the_frame() {
        let dir = scratch("inj");
        let store = open(
            &dir,
            FaultPlan::new(vec![
                FaultSpec::new("store.write:a", 1, FaultKind::TornWrite),
                FaultSpec::new("store.write:b", 1, FaultKind::CorruptBytes),
                FaultSpec::new("store.read:c", 1, FaultKind::ReadError),
            ]),
        );
        store.write("a", b"will be torn").unwrap();
        assert_eq!(store.read("a").unwrap(), StoreRead::Corrupt);
        store.write("b", b"will be corrupted").unwrap();
        assert_eq!(store.read("b").unwrap(), StoreRead::Corrupt);
        store.write("c", b"read will fail once").unwrap();
        assert!(store.read("c").is_err());
        assert_eq!(
            store.read("c").unwrap(),
            StoreRead::Ok(b"read will fail once".to_vec())
        );
        // Second writes are clean: occurrences are 1-based and consumed.
        store.write("a", b"clean now").unwrap();
        assert_eq!(
            store.read("a").unwrap(),
            StoreRead::Ok(b"clean now".to_vec())
        );
    }

    #[test]
    fn record_framing_rejects_all_violations() {
        let payload = b"x".repeat(100);
        let framed = encode_record(&payload);
        assert_eq!(decode_record(&framed), Some(payload.clone()));
        assert_eq!(decode_record(&framed[..framed.len() - 1]), None); // torn
        assert_eq!(decode_record(&framed[..10]), None); // short header
        let mut extra = framed.clone();
        extra.push(0); // trailing garbage
        assert_eq!(decode_record(&extra), None);
        let mut flipped = framed.clone();
        flipped[40] ^= 0x80;
        assert_eq!(decode_record(&flipped), None);
        let mut bad_magic = framed;
        bad_magic[0] = b'X';
        assert_eq!(decode_record(&bad_magic), None);
        assert_eq!(decode_record(&encode_record(b"")), Some(Vec::new()));
    }
}
