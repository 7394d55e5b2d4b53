//! Offline stand-in for `bytes`: the `BytesMut` + `BufMut` surface the
//! compression codec uses, backed by a plain `Vec<u8>`.

#![deny(unsafe_code)]

/// Append-only byte-writing operations.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16` little-endian.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a `u32` little-endian.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a `u64` little-endian.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

/// Growable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { data: Vec::with_capacity(capacity) }
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Consumes the buffer into its backing `Vec<u8>`.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }

    /// Read-only view of the contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_little_endian() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u8(0xAB);
        b.put_u16_le(0x0506);
        b.put_u32_le(0x0102_0304);
        b.put_slice(&[9, 9]);
        assert_eq!(b.to_vec(), vec![0xAB, 6, 5, 4, 3, 2, 1, 9, 9]);
        assert_eq!(b.len(), 9);
    }
}
