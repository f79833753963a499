//! Trace serialization: write access streams to disk and replay them.
//!
//! The simulator normally generates traces on the fly, but a file format
//! makes runs portable (e.g. replaying the exact same LLC-level stream
//! against an external simulator) and supports capturing filtered
//! streams. The format is a compact fixed-width binary record:
//!
//! ```text
//! magic "NUTR" | version u32 | record count u64 |
//! repeat: core u8 | kind u8 | mlp u8 | pad u8 | gap u32 | pc u64 | addr u64
//! ```
//!
//! All integers are little-endian.

use nucache_common::fault::{active_fault_plan, FaultPlan, FaultSite};
use nucache_common::{Access, AccessKind, Addr, CoreId, Pc};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"NUTR";
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 24;

/// Writes `accesses` to `path` in the trace format.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
///
/// # Examples
///
/// ```no_run
/// use nucache_trace::io::{read_trace, write_trace};
/// use nucache_trace::{SpecWorkload, TraceGen};
/// use nucache_common::CoreId;
///
/// # fn main() -> std::io::Result<()> {
/// let accesses: Vec<_> =
///     TraceGen::new(&SpecWorkload::McfLike.spec(), CoreId::new(0), 1).take(1000).collect();
/// write_trace("mcf.nutr", &accesses)?;
/// let back = read_trace("mcf.nutr")?;
/// assert_eq!(back, accesses);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<P: AsRef<Path>>(path: P, accesses: &[Access]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(accesses.len() as u64).to_le_bytes())?;
    for a in accesses {
        let mut rec = [0u8; RECORD_BYTES];
        rec[0] = a.core.0;
        rec[1] = u8::from(a.kind.is_write());
        rec[2] = a.mlp;
        rec[4..8].copy_from_slice(&a.gap.to_le_bytes());
        rec[8..16].copy_from_slice(&a.pc.0.to_le_bytes());
        rec[16..24].copy_from_slice(&a.addr.0.to_le_bytes());
        w.write_all(&rec)?;
    }
    w.flush()
}

/// Reads a trace previously written by [`write_trace`].
///
/// When a process-wide fault plan is active
/// ([`nucache_common::fault::active_fault_plan`]), reads additionally
/// surface deterministically injected malformed records as
/// `InvalidData` errors, exercising callers' degradation paths.
///
/// # Errors
///
/// Returns `InvalidData` for a bad magic, unsupported version or
/// truncated file, and propagates underlying I/O errors.
pub fn read_trace<P: AsRef<Path>>(path: P) -> io::Result<Vec<Access>> {
    read_trace_with_plan(path, active_fault_plan())
}

/// [`read_trace`] with an explicit fault plan (`None` disables
/// injection regardless of the process-wide plan). A plan makes record
/// `i` malformed whenever the plan's
/// [`TraceRecord`](FaultSite::TraceRecord) stream faults at `i`.
///
/// # Errors
///
/// As [`read_trace`], plus an `InvalidData` error at every injected
/// malformed record.
#[expect(clippy::expect_used, reason = "fixed-size slices convert to arrays infallibly")]
pub fn read_trace_with_plan<P: AsRef<Path>>(
    path: P,
    plan: Option<FaultPlan>,
) -> io::Result<Vec<Access>> {
    let mut r = BufReader::new(File::open(path)?);
    let mut header = [0u8; 16];
    r.read_exact(&mut header)?;
    if &header[0..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a NUTR trace (bad magic)"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {version}"),
        ));
    }
    let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let mut out = Vec::with_capacity(count.min(1 << 24) as usize);
    let mut rec = [0u8; RECORD_BYTES];
    for i in 0..count {
        r.read_exact(&mut rec).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("trace truncated at record {i} of {count}"),
                )
            } else {
                e
            }
        })?;
        if let Some(plan) = &plan {
            if plan.should_fault(FaultSite::TraceRecord, i) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} of {count}", plan.message(FaultSite::TraceRecord, i)),
                ));
            }
        }
        let kind = if rec[1] != 0 { AccessKind::Write } else { AccessKind::Read };
        let gap = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
        let pc = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let addr = u64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
        out.push(
            Access::with_gap(CoreId::new(rec[0]), Pc::new(pc), Addr::new(addr), kind, gap)
                .with_mlp(rec[2]),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SpecWorkload, TraceGen};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nucache_trace_io");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let accesses: Vec<Access> =
            TraceGen::new(&SpecWorkload::McfLike.spec(), CoreId::new(3), 9).take(2_000).collect();
        let path = tmp("roundtrip.nutr");
        write_trace(&path, &accesses).expect("write");
        let back = read_trace(&path).expect("read");
        assert_eq!(back, accesses);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let path = tmp("empty.nutr");
        write_trace(&path, &[]).expect("write");
        assert_eq!(read_trace(&path).expect("read"), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("bad_magic.nutr");
        std::fs::write(&path, b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00").unwrap();
        let err = read_trace(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn truncation_detected() {
        let accesses: Vec<Access> =
            TraceGen::new(&SpecWorkload::LbmLike.spec(), CoreId::new(0), 1).take(10).collect();
        let path = tmp("trunc.nutr");
        write_trace(&path, &accesses).expect("write");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn injected_malformed_records_surface_as_invalid_data() {
        use nucache_common::fault::{FaultPlan, FaultSite};
        let accesses: Vec<Access> =
            TraceGen::new(&SpecWorkload::McfLike.spec(), CoreId::new(0), 5).take(5_000).collect();
        let path = tmp("inject.nutr");
        write_trace(&path, &accesses).expect("write");
        // Find a seed whose TraceRecord stream faults somewhere in range
        // (the per-record rate is low, so scan a few seeds).
        let plan = (0..64)
            .map(FaultPlan::new)
            .find(|p| (0..5_000).any(|i| p.should_fault(FaultSite::TraceRecord, i)))
            .expect("some small seed faults within 5000 records");
        let err = read_trace_with_plan(&path, Some(plan)).expect_err("injected record fails");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("injected fault"), "got: {err}");
        // Same plan, same outcome; no plan, clean read.
        assert!(read_trace_with_plan(&path, Some(plan)).is_err());
        assert_eq!(read_trace_with_plan(&path, None).expect("clean read"), accesses);
    }

    #[test]
    fn wrong_version_rejected() {
        let path = tmp("version.nutr");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = read_trace(&path).unwrap_err();
        assert!(err.to_string().contains("version"));
    }
}
