//! Minimal binary encoding helpers shared by WAL frames, run blocks, run
//! tails, the MANIFEST and the table layer: little-endian fixed
//! integers, LEB128-style varints and length-prefixed byte strings.

use crate::error::{StorageError, StorageResult};

/// Append an unsigned varint (LEB128) to `out`.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Decode an unsigned varint from the front of `buf`, returning the value
/// and the number of bytes consumed.
pub fn get_uvarint(buf: &[u8]) -> StorageResult<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(StorageError::Decode("varint overflow".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(StorageError::Decode("truncated varint".into()))
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_uvarint(out, data.len() as u64);
    out.extend_from_slice(data);
}

/// Decode a length-prefixed byte string from the front of `buf`, returning
/// the slice and the total bytes consumed.
pub fn get_bytes(buf: &[u8]) -> StorageResult<(&[u8], usize)> {
    let (len, n) = get_uvarint(buf)?;
    let len = usize::try_from(len).map_err(|_| StorageError::Decode("length overflow".into()))?;
    let end = n
        .checked_add(len)
        .ok_or_else(|| StorageError::Decode("length overflow".into()))?;
    if buf.len() < end {
        return Err(StorageError::Decode(format!(
            "truncated bytes: need {end}, have {}",
            buf.len()
        )));
    }
    Ok((&buf[n..end], end))
}

/// Append a fixed little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Decode a fixed little-endian u32 from the front of `buf`.
pub fn get_u32(buf: &[u8]) -> StorageResult<(u32, usize)> {
    if buf.len() < 4 {
        return Err(StorageError::Decode("truncated u32".into()));
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[..4]);
    Ok((u32::from_le_bytes(b), 4))
}

/// Append a fixed little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Decode a fixed little-endian u64 from the front of `buf`.
pub fn get_u64(buf: &[u8]) -> StorageResult<(u64, usize)> {
    if buf.len() < 8 {
        return Err(StorageError::Decode("truncated u64".into()));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[..8]);
    Ok((u64::from_le_bytes(b), 8))
}

/// Decode a lowercase hex fixture (test fixtures hold the bytes an
/// earlier build wrote as hex).
#[cfg(test)]
pub(crate) fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex fixture"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let (got, n) = get_uvarint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 40);
        buf.pop();
        assert!(get_uvarint(&buf).is_err());
    }

    #[test]
    fn varint_overflow_is_error() {
        // 11 continuation bytes exceed 64 bits.
        let buf = [0xFFu8; 11];
        assert!(get_uvarint(&buf).is_err());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"species");
        put_bytes(&mut buf, b"");
        let (a, n) = get_bytes(&buf).unwrap();
        assert_eq!(a, b"species");
        let (b, m) = get_bytes(&buf[n..]).unwrap();
        assert_eq!(b, b"");
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn bytes_truncated_is_error() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"catalogue of life");
        buf.truncate(buf.len() - 3);
        assert!(get_bytes(&buf).is_err());
    }

    #[test]
    fn fixed_ints_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        let (a, n) = get_u32(&buf).unwrap();
        let (b, _) = get_u64(&buf[n..]).unwrap();
        assert_eq!(a, 0xDEAD_BEEF);
        assert_eq!(b, 0x0123_4567_89AB_CDEF);
    }
}
