//! Opaque, resumable pagination cursors.
//!
//! A cursor token pins everything a resume needs to be exact:
//!
//! - the **snapshot timestamp** the scan executes at, so every page of
//!   one logical scan sees the same graph even while writers commit;
//! - a **query fingerprint** (query text + parameters), so a token can
//!   only resume the query it was minted for;
//! - the **anchor** — the last node key emitted (a key-ordered node scan
//!   resumes strictly after it) or a row offset (every other source
//!   skips that many rows while pulling);
//! - the **rows emitted so far**, so `LIMIT` composes across pages;
//! - an FNV-1a **checksum** ([`vfs::fnv64`]) over all of the above.
//!
//! Tokens are integrity-checked, not authenticated: a corrupted,
//! truncated, or bit-flipped token is rejected with
//! [`GraphError::CursorInvalid`] — never mis-resumed. On top of the
//! codec, the executor revalidates the anchor against the pinned
//! snapshot (a compacted or vanished anchor also yields `CursorInvalid`
//! rather than silently skipping or duplicating rows).

use crate::exec::Params;
use crate::value::Value;
use lpg::{GraphError, Result};
use vfs::fnv64;

const MAGIC: u16 = 0xA10C;
/// Version 2 checksums and fingerprints with [`vfs::fnv64`]; version 1
/// used a private FNV whose prime had one hex digit too many.
const VERSION: u8 = 2;
const KIND_KEY: u8 = 1;
const KIND_OFFSET: u8 = 2;
/// magic(2) + version(1) + kind(1) + ts(8) + anchor(8) + rows(8) +
/// fingerprint(8) + checksum(8).
const TOKEN_LEN: usize = 44;

/// Where a resumed scan picks up.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Anchor {
    /// Key-ordered node scan: resume strictly after this node key.
    Key(u64),
    /// Any other source: resume at this row offset.
    Offset(u64),
}

/// A decoded cursor token.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CursorToken {
    /// Snapshot timestamp the paged scan is pinned to.
    pub snapshot_ts: u64,
    /// Fingerprint of the query text + parameters.
    pub fingerprint: u64,
    /// Rows emitted by all previous pages (LIMIT accounting).
    pub rows_emitted: u64,
    /// Resume position.
    pub anchor: Anchor,
}

impl CursorToken {
    /// Serializes the token with its trailing checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(TOKEN_LEN);
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(VERSION);
        let (kind, anchor) = match self.anchor {
            Anchor::Key(k) => (KIND_KEY, k),
            Anchor::Offset(o) => (KIND_OFFSET, o),
        };
        out.push(kind);
        out.extend_from_slice(&self.snapshot_ts.to_be_bytes());
        out.extend_from_slice(&anchor.to_be_bytes());
        out.extend_from_slice(&self.rows_emitted.to_be_bytes());
        out.extend_from_slice(&self.fingerprint.to_be_bytes());
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_be_bytes());
        out
    }

    /// Parses and integrity-checks a token. Every failure is a typed
    /// [`GraphError::CursorInvalid`]; garbage can never mis-resume.
    pub fn decode(bytes: &[u8]) -> Result<CursorToken> {
        let invalid = |why: &str| GraphError::CursorInvalid(why.into());
        if bytes.len() != TOKEN_LEN {
            return Err(invalid("wrong length"));
        }
        let (body, sum_bytes) = bytes.split_at(TOKEN_LEN - 8);
        let stored = u64::from_be_bytes(sum_bytes.try_into().map_err(|_| invalid("checksum"))?);
        if fnv64(body) != stored {
            return Err(invalid("checksum mismatch"));
        }
        let u16_at = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i..i + 8]);
            u64::from_be_bytes(b)
        };
        if u16_at(0) != MAGIC {
            return Err(invalid("bad magic"));
        }
        if bytes[2] != VERSION {
            return Err(invalid("unknown version"));
        }
        let anchor = match bytes[3] {
            KIND_KEY => Anchor::Key(u64_at(12)),
            KIND_OFFSET => Anchor::Offset(u64_at(12)),
            _ => return Err(invalid("unknown anchor kind")),
        };
        Ok(CursorToken {
            snapshot_ts: u64_at(4),
            anchor,
            rows_emitted: u64_at(20),
            fingerprint: u64_at(28),
        })
    }
}

/// Decodes only the pinned snapshot timestamp (integrity-checked). The
/// server's staleness gate uses this before executing: a replica whose
/// replay watermark is behind the cursor's snapshot must refuse with
/// `StaleReplica` (retryable elsewhere) instead of serving rows the
/// cursor's snapshot has not reached — the same `min_watermark`
/// bounded-staleness contract as first-page reads.
pub fn peek_snapshot_ts(bytes: &[u8]) -> Result<u64> {
    CursorToken::decode(bytes).map(|t| t.snapshot_ts)
}

/// Fingerprints a query + parameter map. Parameter order is
/// canonicalized so logically identical requests fingerprint equally.
pub fn fingerprint(text: &str, params: &Params) -> u64 {
    let mut bytes = text.as_bytes().to_vec();
    let mut names: Vec<&String> = params.keys().collect();
    names.sort();
    for name in names {
        bytes.push(0xFE);
        bytes.extend_from_slice(name.as_bytes());
        put_value(&mut bytes, &params[name]);
    }
    fnv64(&bytes)
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => out.extend_from_slice(&[1, u8::from(*b)]),
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Node { id, .. } => {
            out.push(5);
            out.extend_from_slice(&id.to_be_bytes());
        }
        Value::Rel { id, .. } => {
            out.push(6);
            out.extend_from_slice(&id.to_be_bytes());
        }
        Value::List(vs) => {
            out.push(7);
            for v in vs {
                put_value(out, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token() -> CursorToken {
        CursorToken {
            snapshot_ts: 42,
            fingerprint: 0xDEAD_BEEF,
            rows_emitted: 17,
            anchor: Anchor::Key(99),
        }
    }

    #[test]
    fn roundtrip() {
        let t = token();
        assert_eq!(CursorToken::decode(&t.encode()).unwrap(), t);
        let o = CursorToken {
            anchor: Anchor::Offset(3),
            ..t
        };
        assert_eq!(CursorToken::decode(&o.encode()).unwrap(), o);
        assert_eq!(peek_snapshot_ts(&t.encode()).unwrap(), 42);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Byte-exact known answer: pins the big-endian layout and the
    /// checksum, `vfs::fnv64` over the first 36 bytes.
    #[test]
    fn golden_token() {
        let enc = token().encode();
        assert_eq!(enc.len(), TOKEN_LEN);
        assert_eq!(
            hex(&enc),
            "a10c0201000000000000002a0000000000000063000000000000001100000000deadbeef497ae778764a7e2b"
        );
    }

    /// The same token as minted by version 1, whose checksum used a
    /// private FNV with a wrong prime: it no longer resumes anything, nor
    /// does its body under a checksum this version accepts.
    #[test]
    fn version_1_token_is_invalid() {
        let mut v1 = unhex(
            "a10c0101000000000000002a0000000000000063000000000000001100000000deadbeefea77908a9467a6ac",
        );
        assert!(matches!(
            CursorToken::decode(&v1),
            Err(GraphError::CursorInvalid(_))
        ));
        let sum = fnv64(&v1[..TOKEN_LEN - 8]);
        v1[TOKEN_LEN - 8..].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(
            CursorToken::decode(&v1),
            Err(GraphError::CursorInvalid(why)) if why == "unknown version"
        ));
    }

    #[test]
    fn truncation_and_bitflips_reject() {
        let enc = token().encode();
        for len in 0..enc.len() {
            assert!(
                CursorToken::decode(&enc[..len]).is_err(),
                "truncated to {len} must reject"
            );
        }
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    CursorToken::decode(&bad).is_err(),
                    "bit flip at {byte}:{bit} must reject"
                );
            }
        }
    }

    #[test]
    fn fingerprint_canonicalizes_params() {
        let mut a = Params::new();
        a.insert("x".into(), Value::Int(1));
        a.insert("y".into(), Value::Str("s".into()));
        let mut b = Params::new();
        b.insert("y".into(), Value::Str("s".into()));
        b.insert("x".into(), Value::Int(1));
        assert_eq!(
            fingerprint("MATCH (n) RETURN n", &a),
            fingerprint("MATCH (n) RETURN n", &b)
        );
        assert_ne!(
            fingerprint("MATCH (n) RETURN n", &a),
            fingerprint("MATCH (m) RETURN m", &a)
        );
        let mut c = a.clone();
        c.insert("x".into(), Value::Int(2));
        assert_ne!(
            fingerprint("MATCH (n) RETURN n", &a),
            fingerprint("MATCH (n) RETURN n", &c)
        );
    }
}
