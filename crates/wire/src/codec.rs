//! Little-endian primitive codec, and the *real* implementations of the
//! workspace's serde-shaped traits.
//!
//! Every multi-byte integer on the wire is little-endian. [`WireWriter`] and
//! [`WireReader`] are the only places bytes are produced or consumed;
//! everything above them (messages, frames) is layout, not byte twiddling.
//!
//! `&mut WireWriter` implements [`serde::Serializer`] and `&mut WireReader`
//! implements [`serde::Deserializer`], so any type with a hand-written
//! `Serialize`/`Deserialize` impl — notably `Fp<M>`, which writes its
//! canonical `u64` residue — serializes onto the wire through the exact trait
//! surface the rest of the workspace already annotates. The no-op *derived*
//! impls (which emit `serialize_unit`) are rejected loudly rather than
//! silently writing nothing.

use avcc_field::{Fp, PrimeField, PrimeModulus};

use crate::error::WireError;

/// Append-only little-endian byte sink.
#[derive(Debug, Clone, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends an `f64` as the little-endian bytes of its IEEE-754 bit
    /// pattern (exact round-trip, no text formatting).
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` slice in one pre-reserved pass — the bulk path used
    /// for element arrays (benched against the per-element serde path by
    /// `wire_encode`, gated not-worse).
    ///
    /// Values are staged through a stack buffer 16 at a time so the vector
    /// pays one capacity check per 128 bytes instead of one per element.
    pub fn put_u64_bulk(&mut self, values: &[u64]) {
        self.buf.reserve(values.len() * 8);
        let mut staged = [0u8; 128];
        let mut chunks = values.chunks_exact(16);
        for chunk in &mut chunks {
            for (slot, &value) in staged.chunks_exact_mut(8).zip(chunk) {
                slot.copy_from_slice(&value.to_le_bytes());
            }
            self.buf.extend_from_slice(&staged);
        }
        for &value in chunks.remainder() {
            self.buf.extend_from_slice(&value.to_le_bytes());
        }
    }
}

impl serde::Serializer for &mut WireWriter {
    type Ok = ();
    type Error = WireError;

    fn serialize_u64(self, value: u64) -> Result<(), WireError> {
        self.put_u64(value);
        Ok(())
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        // `serialize_unit` is what the *no-op derived* impls emit. Writing
        // nothing would silently drop data on the wire, so refuse.
        Err(WireError::Malformed {
            context: "refusing to wire-serialize a no-op derived impl (unit)",
        })
    }
}

/// Cursor over a received byte buffer.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { context });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as its IEEE-754 bit pattern.
    pub fn take_f64(&mut self, context: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64(context)?))
    }

    /// Reads `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, context)
    }

    /// Fails unless every byte has been consumed — trailing garbage in a
    /// message payload is a protocol violation, not padding.
    pub fn expect_end(&self, context: &'static str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed { context });
        }
        Ok(())
    }
}

impl<'de> serde::Deserializer<'de> for &mut WireReader<'de> {
    type Error = WireError;

    fn deserialize_u64(self) -> Result<u64, WireError> {
        self.take_u64("u64 via serde")
    }
}

/// Serializes a field-element slice through the serde trait surface
/// (`Fp::serialize` → `serialize_u64`): one canonical `u64` residue per
/// element, no length prefix (the caller's message layout carries counts).
pub fn put_field_elements<M: PrimeModulus>(
    writer: &mut WireWriter,
    values: &[Fp<M>],
) -> Result<(), WireError> {
    for value in values {
        serde::Serialize::serialize(value, &mut *writer)?;
    }
    Ok(())
}

/// Reads `count` field elements, enforcing the canonical-residue invariant:
/// a raw value `>= M::MODULUS` is a protocol violation (never silently
/// reduced — that would let a corrupted frame masquerade as valid data).
///
/// `count` may come from a peer, so it is checked against the bytes left in
/// the reader before anything is allocated: fewer than `count · 8` remaining
/// bytes is `Truncated`, exactly as in [`take_u64_elements`].
pub fn take_field_elements<M: PrimeModulus>(
    reader: &mut WireReader<'_>,
    count: usize,
) -> Result<Vec<Fp<M>>, WireError> {
    if reader.remaining() < count.saturating_mul(8) {
        return Err(WireError::Truncated {
            context: "field elements",
        });
    }
    let mut values = Vec::with_capacity(count);
    for index in 0..count {
        let raw: u64 = serde::Deserialize::deserialize(&mut *reader)?;
        if raw >= M::MODULUS {
            return Err(WireError::NonCanonical {
                index,
                value: raw,
                modulus: M::MODULUS,
            });
        }
        values.push(<Fp<M> as PrimeField>::from_u64(raw));
    }
    Ok(values)
}

/// Reads `count` raw `u64`s (the modulus-erased executor path; canonicity is
/// checked later, when the modulus is known).
pub fn take_u64_elements(
    reader: &mut WireReader<'_>,
    count: usize,
    context: &'static str,
) -> Result<Vec<u64>, WireError> {
    if reader.remaining() < count.saturating_mul(8) {
        return Err(WireError::Truncated { context });
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(reader.take_u64(context)?);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{F251, F61, P251, P61};

    #[test]
    fn primitive_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8 + 8);

        let mut r = WireReader::new(&bytes);
        assert_eq!(r.take_u8("t").unwrap(), 0xAB);
        assert_eq!(r.take_u16("t").unwrap(), 0xBEEF);
        assert_eq!(r.take_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64("t").unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.take_f64("t").unwrap(), -1234.5678);
        r.expect_end("t").unwrap();
    }

    #[test]
    fn little_endian_layout() {
        let mut w = WireWriter::new();
        w.put_u32(0x0403_0201);
        assert_eq!(w.as_slice(), &[0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn field_elements_roundtrip_via_serde_traits() {
        let values: Vec<F61> = (0..17u64).map(|i| F61::new(i * 1_000_003)).collect();
        let mut w = WireWriter::new();
        put_field_elements(&mut w, &values).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 17 * 8);

        let mut r = WireReader::new(&bytes);
        let back: Vec<F61> = take_field_elements::<P61>(&mut r, 17).unwrap();
        r.expect_end("t").unwrap();
        assert_eq!(back, values);
    }

    #[test]
    fn non_canonical_element_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(251); // == P251::MODULUS, so not canonical
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let err = take_field_elements::<P251>(&mut r, 1).unwrap_err();
        assert_eq!(
            err,
            WireError::NonCanonical {
                index: 0,
                value: 251,
                modulus: 251,
            }
        );
        let _: Vec<F251> = Vec::new();
    }

    #[test]
    fn hostile_field_element_count_is_truncated_before_allocating() {
        // A count whose byte length saturates: without the remaining-bytes
        // guard `Vec::with_capacity` is asked for ~2^64 bytes and panics.
        let bytes = [0u8; 16];
        let mut r = WireReader::new(&bytes);
        let err = take_field_elements::<P61>(&mut r, usize::MAX / 8).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err:?}");
        // Nothing was consumed, and an honest count still reads.
        assert_eq!(r.remaining(), 16);
        assert_eq!(take_field_elements::<P61>(&mut r, 2).unwrap().len(), 2);
    }

    #[test]
    fn truncated_read_is_an_error_not_a_panic() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert!(matches!(r.take_u64("t"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn bulk_u64_matches_element_path() {
        let values: Vec<u64> = (0..100).map(|i| i * 0x9E37_79B9).collect();
        let mut element = WireWriter::new();
        for &v in &values {
            element.put_u64(v);
        }
        let mut bulk = WireWriter::new();
        bulk.put_u64_bulk(&values);
        assert_eq!(element.as_slice(), bulk.as_slice());
    }

    #[test]
    fn derived_noop_serialize_is_rejected() {
        let mut w = WireWriter::new();
        let err = serde::Serializer::serialize_unit(&mut w).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }));
    }
}
