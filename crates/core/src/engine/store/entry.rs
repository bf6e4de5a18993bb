//! On-disk entry plumbing for every plan kind: FNV-1a integrity checksums,
//! the little-endian payload codec, the framed entry layout, and the atomic
//! tmp+rename publish.
//!
//! # Frame layout
//!
//! ```text
//! magic    8 bytes   format tag
//! version  u32 LE    format version
//! fp       u64 LE    fingerprint (must match the filename)
//! len      u64 LE    payload length in bytes
//! payload  len bytes format specific
//! checksum u64 LE    FNV-1a 64 over every preceding byte
//! ```
//!
//! The version field always sits at bytes `[8..12]`, a stability guarantee
//! the corruption tests (and any external tooling poking at entries) rely
//! on.

use mm_linalg::Matrix;
use mm_workload::Fingerprint;
use std::path::Path;

/// FNV-1a 64-bit, the store's integrity checksum: not cryptographic, but it
/// reliably catches the failure modes a strategy store actually sees
/// (truncation, torn writes, bit rot).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub(crate) fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

pub(crate) fn push_matrix(out: &mut Vec<u8>, m: &Matrix) {
    push_u64(out, m.rows() as u64);
    push_u64(out, m.cols() as u64);
    for &v in m.as_slice() {
        push_f64(out, v);
    }
}

/// A bounds-checked little-endian reader over a decoded payload; every
/// accessor returns `None` past the end, so corrupt length fields inside a
/// checksum-valid payload degrade to a failed parse, never a panic.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    pub(crate) fn matrix(&mut self) -> Option<Matrix> {
        let rows = usize::try_from(self.u64()?).ok()?;
        let cols = usize::try_from(self.u64()?).ok()?;
        let n = rows.checked_mul(cols)?;
        // The entries must actually be present: bounding the allocation by
        // the remaining payload keeps a corrupt length from allocating GiBs.
        if n.checked_mul(8)? > self.bytes.len() - self.pos {
            return None;
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(self.f64()?);
        }
        Matrix::from_vec(rows, cols, data).ok()
    }

    /// The not-yet-consumed remainder of the payload, consuming it.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Frames a payload: magic, version, fingerprint, length, payload, FNV-1a
/// checksum over every preceding byte.
pub(crate) fn encode_framed(
    magic: &[u8; 8],
    version: u32,
    fp: Fingerprint,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 8 + 8 + payload.len() + 8);
    out.extend_from_slice(magic);
    push_u32(&mut out, version);
    push_u64(&mut out, fp.0);
    push_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

/// Verifies an entry's frame and returns its payload: checks size, checksum,
/// magic, version, fingerprint and exact length.  `None` on any mismatch —
/// the caller treats the entry as corrupt.
pub(crate) fn decode_framed<'a>(
    magic: &[u8; 8],
    version: u32,
    fp: Fingerprint,
    bytes: &'a [u8],
) -> Option<&'a [u8]> {
    // Header + checksum around an empty payload is the minimum size.
    let header = 8 + 4 + 8 + 8;
    if bytes.len() < header + 8 {
        return None; // truncated
    }
    let (body, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != stored {
        return None; // bit flip / torn write
    }
    let mut c = Cursor::new(body);
    if c.take(8)? != magic {
        return None;
    }
    if c.u32()? != version {
        return None; // wrong version: recompute rather than misparse
    }
    if c.u64()? != fp.0 {
        return None; // renamed/misplaced entry
    }
    let len = usize::try_from(c.u64()?).ok()?;
    let payload = c.take(len)?;
    if !c.done() {
        return None;
    }
    Some(payload)
}

/// Atomic publish: writes `bytes` to a temporary file in `dir` and renames
/// it over `path`, so readers never observe a partial entry under a crashed
/// writer.  Returns whether the entry is in place.
pub(crate) fn atomic_write(dir: &Path, tmp_name: &str, path: &Path, bytes: &[u8]) -> bool {
    let tmp = dir.join(tmp_name);
    if std::fs::write(&tmp, bytes).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    if std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    true
}

/// Fault-injection hook for torn/short writes: lands a *truncated prefix*
/// of `bytes` directly at `path` — deliberately skipping the
/// [`atomic_write`] tmp+rename protocol — to simulate a writer that crashed
/// mid-write on a filesystem without atomic rename.  Best effort; the
/// half-entry (cut inside the payload, past the header) is exactly what the
/// checksum/truncation read path must detect and drop.
pub(crate) fn torn_write(path: &Path, bytes: &[u8]) {
    let keep = bytes.len() / 2;
    let _ = std::fs::write(path, &bytes[..keep]);
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"MMTESTS\n";

    #[test]
    fn framed_round_trip_and_rejections() {
        let fp = Fingerprint(0x1234_5678_9ABC_DEF0);
        let payload = b"hello payload".to_vec();
        let bytes = encode_framed(&MAGIC, 3, fp, &payload);
        assert_eq!(
            decode_framed(&MAGIC, 3, fp, &bytes),
            Some(payload.as_slice())
        );
        // Version sits at bytes [8..12], a layout guarantee.
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), 3);

        // Truncation, bit flip, wrong magic/version/fp all fail closed.
        assert!(decode_framed(&MAGIC, 3, fp, &bytes[..bytes.len() / 2]).is_none());
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(decode_framed(&MAGIC, 3, fp, &flipped).is_none());
        assert!(decode_framed(b"WRONGMAG", 3, fp, &bytes).is_none());
        assert!(decode_framed(&MAGIC, 4, fp, &bytes).is_none());
        assert!(decode_framed(&MAGIC, 3, Fingerprint(1), &bytes).is_none());
    }

    #[test]
    fn cursor_is_bounds_checked() {
        let mut out = Vec::new();
        push_u32(&mut out, 7);
        push_f64(&mut out, 1.5);
        let mut c = Cursor::new(&out);
        assert_eq!(c.u32(), Some(7));
        assert_eq!(c.f64(), Some(1.5));
        assert!(c.done());
        assert!(c.u8().is_none());

        // A matrix whose advertised size exceeds the remaining bytes parses
        // as None without allocating.
        let mut bad = Vec::new();
        push_u64(&mut bad, u64::MAX);
        push_u64(&mut bad, u64::MAX);
        assert!(Cursor::new(&bad).matrix().is_none());
    }

    #[test]
    fn matrix_round_trips_bitwise() {
        let m = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.1 - 0.05);
        let mut out = Vec::new();
        push_matrix(&mut out, &m);
        let mut c = Cursor::new(&out);
        let back = c.matrix().unwrap();
        assert!(c.done());
        assert_eq!(back.shape(), (3, 2));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rest_consumes_the_tail() {
        let bytes = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Some(1));
        assert_eq!(c.rest(), &[2, 3, 4, 5]);
        assert!(c.done());
        assert!(c.rest().is_empty());
    }
}
