//! Bit-exact checkpoint/restore protocol for the simulator.
//!
//! Every stateful component of the simulation pipeline — core runtimes,
//! the DMA arbiter, NoC queues, DRAM channels, the MMU, the scheduler —
//! serializes its *mutable* state through this crate's
//! [`Writer`]/[`Reader`] codec into a [`SimSnapshot`]. Structural state
//! (anything derivable from the configuration and the workload traces) is
//! deliberately *not* serialized: a snapshot is restored **into** a
//! freshly built simulation, and fingerprints of the configuration and
//! traces guard against restoring into the wrong shape. Neither are memos
//! the event loop rebuilds: restore resets them, so equal states give
//! equal bytes whatever queries preceded the snapshot.
//!
//! The contract is exactness: a simulation snapshotted at cycle *k* and
//! restored into a fresh instance must continue bit-identically to one
//! that never stopped. The engine's lockstep proptest suite, the fuzzer's
//! mid-case restore, and the `snapshot-resume-exact` metamorphic law all
//! fence that contract.
//!
//! Snapshots survive process restarts through two interchangeable
//! encodings: a compact binary framing ([`SimSnapshot::to_bytes`]) and a
//! JSON wrapper with a hex payload ([`SimSnapshot::to_json`]) for
//! artifact pipelines. The two round-trip losslessly:
//! `from_json(to_json(s)) == s == from_bytes(to_bytes(s))`. The wrapper
//! framing ([`to_json_wrapper`] / [`from_json_wrapper`]) and the JSON
//! reader it is decoded with ([`json`]) are shared with every other
//! checkpoint wrapper and wire format in the workspace.
//!
//! The header is versioned: a snapshot whose [`SNAPSHOT_VERSION`] does not
//! match the binary that reads it fails loudly with
//! [`SnapError::VersionMismatch`] instead of silently misdecoding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use json::Value;
use std::fmt;

/// Current snapshot format version. Bump on any change to the payload
/// layout of *any* component; old snapshots are then rejected loudly.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Magic bytes opening the binary framing.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MNPS";

/// Decoding/validation failure. Every variant is loud and descriptive —
/// a snapshot that cannot be restored exactly must never be restored
/// approximately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the decoder was done.
    Truncated,
    /// The binary framing does not open with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Snapshot was written by a different format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The snapshot was taken under a different system configuration.
    ConfigMismatch {
        /// Fingerprint in the snapshot header.
        found: u64,
        /// Fingerprint of the configuration being restored into.
        expected: u64,
    },
    /// A core's workload trace does not match the snapshot's.
    TraceMismatch {
        /// Core whose trace fingerprint disagreed.
        core: usize,
    },
    /// A section tag byte did not match the expected section.
    BadTag {
        /// Tag the decoder expected.
        expected: u8,
        /// Tag found in the stream.
        found: u8,
    },
    /// A decoded value was structurally impossible (described by the str).
    BadValue(&'static str),
    /// The JSON wrapper was malformed.
    BadJson(&'static str),
    /// Bytes were left over after the last section — the payload and the
    /// decoder disagree about the layout.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a mNPUsim snapshot (bad magic)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version {found} does not match this binary's version {expected} \
                 (re-take the snapshot; formats are not migrated)"
            ),
            SnapError::ConfigMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} != {expected:#018x}: \
                 restore target was built from a different SystemConfig"
            ),
            SnapError::TraceMismatch { core } => {
                write!(f, "core {core}: workload trace does not match the snapshot")
            }
            SnapError::BadTag { expected, found } => {
                write!(f, "bad section tag: expected {expected:#04x}, found {found:#04x}")
            }
            SnapError::BadValue(what) => write!(f, "invalid snapshot value: {what}"),
            SnapError::BadJson(what) => write!(f, "invalid snapshot JSON: {what}"),
            SnapError::TrailingBytes => write!(f, "trailing bytes after final snapshot section"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over a string — the same compact fingerprint the bench run
/// cache keys with. Used for the config/trace guard fingerprints.
pub fn fingerprint(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Fold `v` into fingerprint `h` (order-sensitive, FNV-1a over the LE
/// bytes). Lets trace fingerprints combine cheap numeric summaries
/// without formatting strings on the hot path.
pub fn fingerprint_u64(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Little-endian append-only byte sink for snapshot payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer { buf: Vec::with_capacity(4096) }
    }

    /// Consume the writer, returning the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a section tag byte (checked by [`Reader::tag`] on load).
    pub fn tag(&mut self, t: u8) {
        self.buf.push(t);
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write an `Option` as a presence byte plus the value.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Writer, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Write a slice as a length prefix plus the elements.
    pub fn seq<T>(&mut self, xs: &[T], mut f: impl FnMut(&mut Writer, &T)) {
        self.usize(xs.len());
        for x in xs {
            f(self, x);
        }
    }

    /// Write a string as length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Little-endian cursor over a snapshot payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Check (and consume) a section tag byte.
    pub fn tag(&mut self, expected: u8) -> Result<(), SnapError> {
        let found = self.u8()?;
        if found != expected {
            return Err(SnapError::BadTag { expected, found });
        }
        Ok(())
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `usize` written as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue("usize overflow"))
    }

    /// Read a bool byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue("bool byte")),
        }
    }

    /// Read an `Option` written by [`Writer::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Read a sequence written by [`Writer::seq`].
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Reader<'a>) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        // Guard against a corrupt length claiming more elements than the
        // remaining bytes could possibly hold (1 byte per element floor).
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(SnapError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Read a string written by [`Writer::str`].
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::BadValue("non-UTF-8 string"))
    }

    /// Error unless every payload byte has been consumed — layout drift
    /// between writer and reader must not pass silently.
    pub fn done(&self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// A complete simulation checkpoint: versioned header plus the opaque
/// component payload written by `Simulation::snapshot`.
///
/// The payload deliberately excludes the [`SystemConfig`] and the
/// workload traces: restoring rebuilds the simulation from those inputs
/// first and then overlays this mutable state, with `config_fp` (and
/// per-core trace fingerprints inside the payload) guarding the shape.
///
/// [`SystemConfig`]: https://docs.rs/mnpu-engine
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u32,
    /// Fingerprint of the `SystemConfig` the snapshot was taken under.
    pub config_fp: u64,
    /// Opaque component payload (sectioned, tag-checked on restore).
    pub payload: Vec<u8>,
}

impl SimSnapshot {
    /// Wrap a payload under the current format version.
    pub fn new(config_fp: u64, payload: Vec<u8>) -> SimSnapshot {
        SimSnapshot { version: SNAPSHOT_VERSION, config_fp, payload }
    }

    /// Binary framing: magic, version, config fingerprint, payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 24);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.config_fp.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode the binary framing.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`] when the bytes are not a snapshot,
    /// [`SnapError::VersionMismatch`] when the format version differs
    /// from [`SNAPSHOT_VERSION`], [`SnapError::Truncated`] /
    /// [`SnapError::TrailingBytes`] on framing damage.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapError> {
        let mut r = Reader::new(bytes);
        let magic = [r.u8()?, r.u8()?, r.u8()?, r.u8()?];
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::VersionMismatch { found: version, expected: SNAPSHOT_VERSION });
        }
        let config_fp = r.u64()?;
        let len = r.usize()?;
        let payload = r.take(len)?.to_vec();
        r.done()?;
        Ok(SimSnapshot { version, config_fp, payload })
    }

    /// JSON wrapper with a hex payload — human-inspectable framing whose
    /// round-trip through [`SimSnapshot::from_json`] is byte-exact.
    pub fn to_json(&self) -> String {
        let fp = format!("{:016x}", self.config_fp);
        to_json_wrapper("mnpu-snapshot", self.version, ("config_fp", &fp), &self.payload)
    }

    /// Decode the JSON wrapper written by [`SimSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`SnapError::BadJson`] on malformed wrappers and
    /// [`SnapError::VersionMismatch`] on a foreign format version.
    pub fn from_json(text: &str) -> Result<SimSnapshot, SnapError> {
        let v = json::parse(text).map_err(|e| SnapError::BadJson(e.message))?;
        let (fp, payload) = from_json_wrapper(&v, "mnpu-snapshot", "config_fp")?;
        let config_fp =
            u64::from_str_radix(fp, 16).map_err(|_| SnapError::BadJson("bad config_fp hex"))?;
        Ok(SimSnapshot::new(config_fp, payload))
    }
}

/// Render the JSON wrapper every checkpoint encoding shares:
/// `{"format":F,"version":V,"<key>":"<value>","payload":"<hex>"}`, with
/// `payload` as lowercase hex. `value` is emitted verbatim, so it must not
/// need JSON escaping.
pub fn to_json_wrapper(
    format: &str,
    version: u32,
    (key, value): (&str, &str),
    payload: &[u8],
) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut hex = String::with_capacity(payload.len() * 2);
    for &b in payload {
        hex.push(char::from(HEX[usize::from(b >> 4)]));
        hex.push(char::from(HEX[usize::from(b & 0xf)]));
    }
    format!(
        "{{\"format\":\"{format}\",\"version\":{version},\"{key}\":\"{value}\",\
         \"payload\":\"{hex}\"}}"
    )
}

/// Open a wrapper written by [`to_json_wrapper`]: `v` must be an object
/// whose `format` is `format`, whose `version` is [`SNAPSHOT_VERSION`],
/// and which holds the string fields `key` and `payload` (hex) — and
/// nothing else. Returns `key`'s value and the decoded payload.
///
/// # Errors
///
/// [`SnapError::VersionMismatch`] on a foreign format version;
/// [`SnapError::BadJson`] on any other deviation, an unknown field
/// included.
pub fn from_json_wrapper<'v>(
    v: &'v Value,
    format: &str,
    key: &str,
) -> Result<(&'v str, Vec<u8>), SnapError> {
    let obj = v.as_obj().ok_or(SnapError::BadJson("wrapper is not a JSON object"))?;
    if v.get("format").and_then(Value::as_str) != Some(format) {
        return Err(SnapError::BadJson("missing or foreign format marker"));
    }
    let found = v
        .get("version")
        .and_then(Value::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or(SnapError::BadJson("bad version field"))?;
    if found != SNAPSHOT_VERSION {
        return Err(SnapError::VersionMismatch { found, expected: SNAPSHOT_VERSION });
    }
    if obj.keys().any(|k| !["format", "version", key, "payload"].contains(&k.as_str())) {
        return Err(SnapError::BadJson("unknown field in wrapper"));
    }
    let value = v.get(key).and_then(Value::as_str).ok_or(SnapError::BadJson("missing field"))?;
    let hex = v
        .get("payload")
        .and_then(Value::as_str)
        .ok_or(SnapError::BadJson("missing payload"))?
        .as_bytes();
    if hex.len() % 2 != 0 {
        return Err(SnapError::BadJson("odd payload hex length"));
    }
    let nibble = |c: u8| char::from(c).to_digit(16).ok_or(SnapError::BadJson("payload hex digit"));
    let payload = hex
        .chunks_exact(2)
        .map(|pair| Ok((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect::<Result<_, SnapError>>()?;
    Ok((value, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_reader_round_trip_every_primitive() {
        let mut w = Writer::new();
        w.tag(7);
        w.u8(0xAB);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(12345);
        w.bool(true);
        w.bool(false);
        w.opt(&Some(9u64), |w, v| w.u64(*v));
        w.opt(&None::<u64>, |w, v| w.u64(*v));
        w.seq(&[1u64, 2, 3], |w, v| w.u64(*v));
        w.str("héllo");
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        r.tag(7).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 12345);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.str().unwrap(), "héllo");
        r.done().unwrap();
    }

    #[test]
    fn wrong_tag_and_truncation_fail_loudly() {
        let mut w = Writer::new();
        w.tag(1);
        w.u64(42);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.tag(2), Err(SnapError::BadTag { expected: 2, found: 1 }));
        let mut r = Reader::new(&bytes[..4]);
        r.tag(1).unwrap();
        assert_eq!(r.u64(), Err(SnapError::Truncated));
        let mut r = Reader::new(&bytes);
        r.tag(1).unwrap();
        assert_eq!(r.done(), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn corrupt_sequence_length_is_rejected_not_allocated() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd element count
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(r.seq(|r| r.u64()).is_err());
    }

    #[test]
    fn version_mismatch_fails_loudly_binary_and_json() {
        let snap = SimSnapshot::new(0x1234, vec![1, 2, 3]);
        let mut bytes = snap.to_bytes();
        // Tamper with the version field (bytes 4..8).
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            SimSnapshot::from_bytes(&bytes),
            Err(SnapError::VersionMismatch { expected: SNAPSHOT_VERSION, .. })
        ));
        let json = snap.to_json().replace(
            &format!("\"version\":{SNAPSHOT_VERSION}"),
            &format!("\"version\":{}", SNAPSHOT_VERSION + 1),
        );
        assert!(matches!(
            SimSnapshot::from_json(&json),
            Err(SnapError::VersionMismatch { expected: SNAPSHOT_VERSION, .. })
        ));
    }

    #[test]
    fn json_wrapper_accepts_only_its_own_shape() {
        let json = SimSnapshot::new(0xab, vec![0, 0x7f, 0xff]).to_json();
        assert_eq!(
            json,
            format!(
                "{{\"format\":\"mnpu-snapshot\",\"version\":{SNAPSHOT_VERSION},\
                 \"config_fp\":\"00000000000000ab\",\"payload\":\"007fff\"}}"
            )
        );
        let bad = |text: &str| SimSnapshot::from_json(text).unwrap_err();
        // A valid wrapper nested under another key is not a wrapper.
        assert!(matches!(bad(&format!("{{\"a\":{json}}}")), SnapError::BadJson(_)));
        // Neither is one with an extra field, one with a foreign marker, or
        // one whose payload is not hex.
        let extra = json.replacen('{', "{\"extra\":1,", 1);
        assert_eq!(bad(&extra), SnapError::BadJson("unknown field in wrapper"));
        assert!(matches!(bad(&json.replace("mnpu-snapshot", "other")), SnapError::BadJson(_)));
        assert!(matches!(bad(&json.replace("007fff", "007fé")), SnapError::BadJson(_)));
        assert!(matches!(bad(&json.replace("007fff", "+7ff")), SnapError::BadJson(_)));
        assert!(matches!(bad("not json"), SnapError::BadJson(_)));
    }

    #[test]
    fn bad_magic_is_not_a_snapshot() {
        let mut bytes = SimSnapshot::new(1, vec![]).to_bytes();
        bytes[0] = b'X';
        assert_eq!(SimSnapshot::from_bytes(&bytes), Err(SnapError::BadMagic));
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        let h = fingerprint_u64(fingerprint("seed"), 7);
        assert_ne!(h, fingerprint_u64(fingerprint("seed"), 8));
        assert_eq!(h, fingerprint_u64(fingerprint("seed"), 7));
    }

    proptest! {
        #[test]
        fn prop_binary_json_binary_round_trip(
            fp in 0u64..u64::MAX,
            payload in proptest::collection::vec(0u8..=255u8, 0..512),
        ) {
            let snap = SimSnapshot::new(fp, payload);
            let via_bytes = SimSnapshot::from_bytes(&snap.to_bytes()).unwrap();
            prop_assert_eq!(&via_bytes, &snap);
            let via_json = SimSnapshot::from_json(&snap.to_json()).unwrap();
            prop_assert_eq!(&via_json, &snap);
            // The full chain of the satellite requirement:
            // binary -> JSON -> binary equality.
            let chained = SimSnapshot::from_bytes(
                &SimSnapshot::from_json(&via_bytes.to_json()).unwrap().to_bytes(),
            )
            .unwrap();
            prop_assert_eq!(chained, snap);
        }

        #[test]
        fn prop_u64_round_trip(vs in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
            let mut w = Writer::new();
            w.seq(&vs, |w, &v| w.u64(v));
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            prop_assert_eq!(r.seq(|r| r.u64()).unwrap(), vs);
            r.done().unwrap();
        }
    }
}
