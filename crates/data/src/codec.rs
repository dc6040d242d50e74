//! Shared helpers for the hand-rolled binary codecs.
//!
//! Used by the MVAG persistence in [`crate::io`], the delta codec, the
//! IVF index and the `sgla-serve` artifact store, so the sealed
//! container framing ([`seal`] / [`unseal`]), the length-prefixed
//! string framing and the overflow-safe count-prefixed readers exist
//! exactly once.
//! Every reader bounds-checks against `remaining()` with checked
//! arithmetic before allocating — a hostile length field must produce
//! a `None`, never a panic or a huge allocation.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// CRC-32 (IEEE 802.3), bitwise-reflected, no lookup table — codec
/// bodies are read once at startup, so simplicity beats throughput.
/// Shared by the `sgla-serve` artifact store and the `mvag-index`
/// inverted-file index, so both formats checksum identically.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Length of a sealed container's fixed header: magic (4) + version
/// (2) + body length (8) + body CRC-32 (4), all big-endian.
pub const SEAL_HEADER_LEN: usize = 18;

/// Frames `body` as a sealed container: magic, version, body length
/// and the body's CRC-32, then the body.
pub fn seal(magic: u32, version: u16, body: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(SEAL_HEADER_LEN + body.len());
    out.put_u32(magic);
    out.put_u16(version);
    out.put_u64(body.len() as u64);
    out.put_u32(crc32(body));
    out.put_slice(body);
    out.freeze()
}

/// Checks a sealed container's header — length, magic and body
/// length — without reading the body, and returns its version. For
/// readers that verify the body piecewise (a memory-mapped file must
/// not fault every page for one CRC); everyone else calls [`unseal`].
/// Errors are messages naming the container as `noun` ("artifact",
/// "delta", ...), for the caller to wrap in its own error type.
pub fn seal_version(raw: &[u8], magic: u32, noun: &str) -> std::result::Result<u16, String> {
    if raw.len() < SEAL_HEADER_LEN {
        return Err("shorter than the fixed header".into());
    }
    let be = |range: std::ops::Range<usize>| {
        raw[range]
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
    };
    if be(0..4) != u64::from(magic) {
        return Err(format!("bad magic (not an SGLA {noun})"));
    }
    let (header, actual) = (be(6..14), raw.len() - SEAL_HEADER_LEN);
    if header != actual as u64 {
        return Err(format!(
            "body length mismatch: header says {header}, got {actual}"
        ));
    }
    Ok(be(4..6) as u16)
}

/// Opens a sealed container: checks the header ([`seal_version`]) and
/// the body's CRC-32, then returns the version and the body. Which
/// versions are acceptable is the caller's decision.
pub fn unseal(bytes: Bytes, magic: u32, noun: &str) -> std::result::Result<(u16, Bytes), String> {
    let version = seal_version(bytes.as_ref(), magic, noun)?;
    let expect = u32::from_be_bytes(bytes.as_ref()[14..18].try_into().expect("4 bytes"));
    let body = bytes.slice(SEAL_HEADER_LEN..);
    if crc32(body.as_ref()) != expect {
        return Err(format!("checksum mismatch ({noun} bytes were altered)"));
    }
    Ok((version, body))
}

/// Appends a u32-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a u32-length-prefixed UTF-8 string; `None` on truncation or
/// invalid UTF-8.
pub fn get_str(bytes: &mut Bytes) -> Option<String> {
    if bytes.remaining() < 4 {
        return None;
    }
    let len = bytes.get_u32() as usize;
    if bytes.remaining() < len {
        return None;
    }
    String::from_utf8(bytes.copy_to_bytes(len).to_vec()).ok()
}

/// Reads `count` big-endian `f64`s; `None` if fewer bytes remain
/// (overflow-safe for hostile counts).
pub fn get_f64s(bytes: &mut Bytes, count: usize) -> Option<Vec<f64>> {
    if count
        .checked_mul(8)
        .is_none_or(|need| bytes.remaining() < need)
    {
        return None;
    }
    Some((0..count).map(|_| bytes.get_f64()).collect())
}

/// Reads `count` big-endian `u64`s as `usize`; `None` if fewer bytes
/// remain (overflow-safe for hostile counts).
pub fn get_u64s(bytes: &mut Bytes, count: usize) -> Option<Vec<usize>> {
    if count
        .checked_mul(8)
        .is_none_or(|need| bytes.remaining() < need)
    {
        return None;
    }
    Some((0..count).map(|_| bytes.get_u64() as usize).collect())
}

/// Reads `count` big-endian `u32`s as `usize`; `None` if fewer bytes
/// remain (overflow-safe for hostile counts).
pub fn get_u32s(bytes: &mut Bytes, count: usize) -> Option<Vec<usize>> {
    if count
        .checked_mul(4)
        .is_none_or(|need| bytes.remaining() < need)
    {
        return None;
    }
    Some((0..count).map(|_| bytes.get_u32() as usize).collect())
}

/// Alignment (bytes) of zero-copy sections in the v5 artifact layout.
///
/// 64 covers a cache line and every SIMD lane width we may ever emit,
/// and any 64-aligned file offset is trivially 8-aligned, so an `f64`
/// row can be borrowed straight out of a page-cache mapping.
pub const SECTION_ALIGN: usize = 64;

/// Smallest multiple of `align` that is `>= off`. `align` must be a
/// power of two; `None` on overflow.
pub fn align_up(off: usize, align: usize) -> Option<usize> {
    debug_assert!(align.is_power_of_two());
    off.checked_add(align - 1).map(|v| v & !(align - 1))
}

/// Pads `buf` with zero bytes until `base + buf.len()` is a multiple
/// of [`SECTION_ALIGN`]. `base` is the absolute file offset at which
/// `buf` will land (the fixed header length, for artifact bodies).
pub fn pad_to_section_align(buf: &mut BytesMut, base: usize) {
    let pos = base + buf.len();
    let target = align_up(pos, SECTION_ALIGN).expect("alignment overflow");
    for _ in pos..target {
        buf.put_u8(0);
    }
}

/// Appends `vals` as raw little-endian `f64`s (the zero-copy section
/// encoding: matches in-memory layout on little-endian targets, so a
/// mapped section can be borrowed as `&[f64]` without a byte swap).
pub fn put_f64s_le(buf: &mut BytesMut, vals: &[f64]) {
    for &v in vals {
        buf.put_slice(&v.to_le_bytes());
    }
}

/// Decodes a raw little-endian `f64` section into an owned vector;
/// `None` unless `bytes.len() == count * 8` exactly.
pub fn f64s_from_le(bytes: &[u8], count: usize) -> Option<Vec<f64>> {
    if count.checked_mul(8) != Some(bytes.len()) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    const MAGIC: u32 = 0x5445_5354; // "TEST"

    #[test]
    fn seal_roundtrip_and_layout() {
        let sealed = seal(MAGIC, 3, b"payload");
        assert_eq!(sealed.len(), SEAL_HEADER_LEN + 7);
        assert_eq!(&sealed.as_ref()[..4], b"TEST");
        assert_eq!(&sealed.as_ref()[4..6], &3u16.to_be_bytes());
        assert_eq!(&sealed.as_ref()[6..14], &7u64.to_be_bytes());
        assert_eq!(&sealed.as_ref()[14..18], &crc32(b"payload").to_be_bytes());
        assert_eq!(seal_version(sealed.as_ref(), MAGIC, "test"), Ok(3));
        let (version, body) = unseal(sealed, MAGIC, "test").unwrap();
        assert_eq!(version, 3);
        assert_eq!(body.as_ref(), b"payload");
        let (_, empty) = unseal(seal(MAGIC, 1, b""), MAGIC, "test").unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn unseal_rejects_every_truncation() {
        let sealed = seal(MAGIC, 1, b"abc").to_vec();
        for len in 0..sealed.len() {
            let err = unseal(Bytes::from(sealed[..len].to_vec()), MAGIC, "test").unwrap_err();
            let want = if len < SEAL_HEADER_LEN {
                "shorter than the fixed header"
            } else {
                "body length mismatch"
            };
            assert!(err.starts_with(want), "prefix {len}: {err}");
        }
    }

    #[test]
    fn unseal_rejects_flips_and_foreign_headers() {
        let sealed = seal(MAGIC, 2, b"some body bytes").to_vec();
        let open = |raw: Vec<u8>, magic: u32| unseal(Bytes::from(raw), magic, "delta");
        let altered = Err("checksum mismatch (delta bytes were altered)".to_string());
        for pos in SEAL_HEADER_LEN..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x10;
            assert_eq!(open(bad, MAGIC), altered, "body byte {pos}");
        }
        // A flipped CRC byte is a checksum failure too.
        let mut bad = sealed.clone();
        bad[16] ^= 0x01;
        assert_eq!(open(bad, MAGIC), altered);
        // Wrong magic, in the bytes or in the caller's expectation.
        let magic = Err("bad magic (not an SGLA delta)".to_string());
        let mut bad = sealed.clone();
        bad[0] = b'X';
        assert_eq!(open(bad, MAGIC), magic);
        assert_eq!(open(sealed.clone(), MAGIC + 1), magic);
        // The version is not covered by the CRC: a changed one comes
        // back for the caller to accept or refuse.
        let mut other = sealed.clone();
        other[5] = 9;
        assert_eq!(open(other, MAGIC).unwrap().0, 9);
    }

    #[test]
    fn str_roundtrip_and_truncation() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "héllo");
        let full = buf.freeze();
        let mut b = full.clone();
        assert_eq!(get_str(&mut b).as_deref(), Some("héllo"));
        for len in 0..full.len() {
            let mut prefix = full.slice(..len);
            assert!(get_str(&mut prefix).is_none(), "prefix {len} decoded");
        }
    }

    #[test]
    fn align_up_properties() {
        assert_eq!(align_up(0, 64), Some(0));
        assert_eq!(align_up(1, 64), Some(64));
        assert_eq!(align_up(64, 64), Some(64));
        assert_eq!(align_up(65, 64), Some(128));
        assert_eq!(align_up(usize::MAX, 64), None);
    }

    #[test]
    fn padding_lands_sections_on_alignment() {
        let mut buf = BytesMut::new();
        buf.put_slice(b"hello");
        pad_to_section_align(&mut buf, 18);
        assert_eq!((18 + buf.len()) % SECTION_ALIGN, 0);
        let before = buf.len();
        pad_to_section_align(&mut buf, 18);
        assert_eq!(buf.len(), before, "already aligned: no-op");
    }

    #[test]
    fn le_f64_roundtrip_and_framing() {
        let vals = [1.5f64, -0.0, f64::MIN_POSITIVE, 1e300];
        let mut buf = BytesMut::new();
        put_f64s_le(&mut buf, &vals);
        let raw = buf.freeze().to_vec();
        let back = f64s_from_le(&raw, vals.len()).unwrap();
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(f64s_from_le(&raw, vals.len() - 1).is_none());
        assert!(f64s_from_le(&raw[..raw.len() - 1], vals.len()).is_none());
    }

    #[test]
    fn hostile_counts_return_none() {
        let mut b = Bytes::from(vec![0u8; 16]);
        assert!(get_f64s(&mut b.clone(), usize::MAX).is_none());
        assert!(get_u64s(&mut b.clone(), usize::MAX / 4).is_none());
        assert!(get_u32s(&mut b.clone(), usize::MAX / 2).is_none());
        assert_eq!(get_f64s(&mut b, 2).map(|v| v.len()), Some(2));
    }
}
