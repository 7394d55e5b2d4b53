//! Lossless codecs for what crosses the device–edge link.
//!
//! The paper's engine "compresses all transmitted data based on zlib". zlib
//! is not among the allowed offline crates, and the tensors a frame ships
//! are `Combine` outputs — post-ReLU, so half their words are `+0.0` and
//! the mantissa bytes of the rest are noise (7.9–8.0 bits/byte). An LZ
//! matcher finds nothing there; a one-bit-per-word zero map finds half the
//! tensor. [`compress_floats_into`] is that map: a presence bitmap plus the
//! non-zero words verbatim, or the raw words when that is shorter, with a
//! strict inverse ([`decompress_floats`]). It is what every `State` frame
//! of `gcode-engine` carries.
//!
//! The float pack and unpack run in one of three builds, the widest the
//! host has, chosen once by a runtime probe. The baseline (SSE2 on
//! x86_64) and AVX2 builds compile one `#[inline(always)]` body twice,
//! the second inside a `#[target_feature(enable = "avx2")]` wrapper. The
//! AVX-512 build hand-writes the sparse payload's 16-word chunks in
//! intrinsics: `vpcompressd` packs a chunk's non-zero words and
//! `vpexpandd` puts them back. Those two functions hold the workspace's
//! only raw-pointer loads and stores, each under a `// SAFETY:` comment
//! that states its bound. The bodies compare, count and copy integers
//! only, so the builds differ in how many words one instruction covers,
//! never in a byte of the blob or a bit of a decoded word.
//!
//! [`compress`] / [`decompress`] are a greedy LZ77 byte codec. Frames no
//! longer use it (on byte-plane-shuffled activations it spent 2.6 ms a
//! frame to ship them 2–3 % larger than raw); it stays public because the
//! `perf/` harness times it as its `compress.bytes_*` rung.
//!
//! # Example
//!
//! ```
//! use gcode_compress::{compress_floats, decompress_floats};
//!
//! // A post-ReLU row: the zeros cost one bit each.
//! let row = [0.0f32, 1.5, 0.0, 0.0, 2.25, 0.0, 0.0, 0.0];
//! let packed = compress_floats(&row);
//! assert_eq!(packed.len(), 5 + 1 + 2 * 4);
//! assert_eq!(decompress_floats(&packed)?, row);
//! # Ok::<(), gcode_compress::DecodeError>(())
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use bytes::{BufMut, BytesMut};

/// Error returned when a compressed stream is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    msg: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.msg)
    }
}

impl std::error::Error for DecodeError {}

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const WINDOW: usize = 1 << 15;
const HASH_SIZE: usize = 1 << 14;

fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> 18) as usize & (HASH_SIZE - 1)
}

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            break;
        }
        out.put_u8(byte | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = data.get(*pos).ok_or(DecodeError { msg: "truncated varint" })?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError { msg: "varint overflow" });
        }
    }
}

/// Compresses a byte buffer with greedy LZ77.
///
/// Token stream: `0x00 varint(len) <len literal bytes>` or
/// `0x01 varint(len) varint(dist)`. A 4-byte header carries the original
/// length so decompression can preallocate (and so empty input round-trips).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(16 + data.len() / 2);
    out.put_u32_le(data.len() as u32);
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut i = 0usize;
    let mut literal_start = 0usize;

    let flush_literals = |out: &mut BytesMut, from: usize, to: usize, data: &[u8]| {
        if to > from {
            out.put_u8(0x00);
            put_varint(out, (to - from) as u64);
            out.put_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(&data[i..]);
        let candidate = head[h];
        head[h] = i;
        let mut matched = 0usize;
        if candidate != usize::MAX && i - candidate <= WINDOW {
            let max_len = (data.len() - i).min(MAX_MATCH);
            while matched < max_len && data[candidate + matched] == data[i + matched] {
                matched += 1;
            }
        }
        if matched >= MIN_MATCH {
            flush_literals(&mut out, literal_start, i, data);
            out.put_u8(0x01);
            put_varint(&mut out, matched as u64);
            put_varint(&mut out, (i - candidate) as u64);
            // Index a few positions inside the match to keep the chain warm.
            let step = (matched / 4).max(1);
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < i + matched {
                head[hash4(&data[j..])] = j;
                j += step;
            }
            i += matched;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, data.len(), data);
    out.to_vec()
}

/// Decompresses a [`compress`]ed stream.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation, bad tokens or length mismatch.
pub fn decompress(packed: &[u8]) -> Result<Vec<u8>, DecodeError> {
    if packed.len() < 4 {
        return Err(DecodeError { msg: "missing header" });
    }
    let expected = u32::from_le_bytes([packed[0], packed[1], packed[2], packed[3]]) as usize;
    // A match token encodes at most MAX_MATCH output bytes in ~3 input
    // bytes, so any genuine stream expands by < 128x. A corrupted header
    // claiming more must be rejected *before* allocation.
    if expected > packed.len().saturating_mul(128) + 16 {
        return Err(DecodeError { msg: "implausible expansion in header" });
    }
    let mut out = Vec::with_capacity(expected);
    let mut pos = 4usize;
    while pos < packed.len() {
        let tag = packed[pos];
        pos += 1;
        match tag {
            0x00 => {
                let len = get_varint(packed, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(DecodeError { msg: "length overflow" })?;
                if end > packed.len() {
                    return Err(DecodeError { msg: "truncated literals" });
                }
                out.extend_from_slice(&packed[pos..end]);
                pos = end;
            }
            0x01 => {
                let len = get_varint(packed, &mut pos)? as usize;
                let dist = get_varint(packed, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(DecodeError { msg: "bad match distance" });
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return Err(DecodeError { msg: "unknown token" }),
        }
    }
    if out.len() != expected {
        return Err(DecodeError { msg: "length mismatch" });
    }
    Ok(out)
}

/// Leading byte of a float blob whose words follow verbatim.
const MODE_STORED: u8 = 0;
/// Leading byte of a float blob that ships a presence bitmap and only the
/// words whose bit pattern is non-zero.
const MODE_SPARSE: u8 = 1;
/// `[u8 mode][u32 n]`.
const FLOAT_HEADER_LEN: usize = 5;

/// Packs an `f32` tensor into a fresh buffer; see [`compress_floats_into`]
/// for the layout.
pub fn compress_floats(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_floats_into(values, &mut out);
    out
}

/// Appends the packed tensor to `out`, reserving its exact size first:
///
/// ```text
/// stored: [u8 0][u32 n][n × u32 LE words]
/// sparse: [u8 1][u32 n][⌈n/8⌉ bitmap bytes, bit i%8 of byte i/8 = word i present]
///         [one u32 LE word per set bit, in index order]
/// ```
///
/// A word is *present* when its bit pattern is non-zero, so `-0.0`, NaN
/// payloads and denormals all survive bit-exactly. Sparse is chosen exactly
/// when it is the shorter of the two, so the blob never exceeds `5 + 4n`
/// bytes; a post-ReLU activation (half its words `+0.0`) packs to ~0.53×.
///
/// The packing runs in the widest build the host has (`pack_avx512`,
/// `pack_avx2` or the baseline); every build writes the same bytes.
///
/// # Panics
///
/// Panics if `values` holds more than `u32::MAX` words.
pub fn compress_floats_into(values: &[f32], out: &mut Vec<u8>) {
    pack_as(values, out, Build::host());
}

/// A build of the float codec's pack and unpack bodies. A wide variant
/// holds the host probe's [`probe::Found`], so it exists only where this
/// CPU runs the instructions its build was compiled for.
#[derive(Clone, Copy, Debug)]
enum Build {
    /// The target's baseline (SSE2 on x86_64).
    Baseline,
    /// The baseline bodies compiled with AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2(probe::Found),
    /// The sparse bodies' full 16-word chunks in AVX-512 compress/expand
    /// instructions, the rest in the shared bodies.
    #[cfg(target_arch = "x86_64")]
    Avx512(probe::Found),
}

impl Build {
    /// The widest build this host runs: the one every call takes.
    fn host() -> Self {
        *probe::builds().last().expect("the baseline runs everywhere")
    }
}

/// The host probe, asked once: the only maker of a wide [`Build`].
/// `gcode_tensor::rows::avx2` asks the same of the kernels; this crate asks
/// for itself so that it depends on nothing but `bytes`.
mod probe {
    use super::Build;
    use std::sync::OnceLock;

    /// Proof that the probe found on this CPU the features of the wide
    /// [`Build`] that holds it. Its field is private to this module, so
    /// nothing else can make one.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Found(());

    /// Every build this host runs, the baseline first and the widest last.
    /// Held in place, not in a `Vec`: the first pack allocates nothing
    /// but its blob.
    pub(super) fn builds() -> &'static [Build] {
        static BUILDS: OnceLock<([Build; 3], usize)> = OnceLock::new();
        let (builds, len) = BUILDS.get_or_init(|| {
            let (mut builds, mut len) = ([Build::Baseline; 3], 1);
            let mut add = |build| {
                builds[len] = build;
                len += 1;
            };
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if is_x86_feature_detected!("avx2") {
                add(Build::Avx2(Found(())));
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt") {
                add(Build::Avx512(Found(())));
            }
            (builds, len)
        });
        &builds[..*len]
    }
}

/// [`compress_floats_into`] by `build`, whatever the host's widest.
fn pack_as(values: &[f32], out: &mut Vec<u8>, build: Build) {
    match build {
        Build::Baseline => pack(values, out),
        // SAFETY: a `Build::Avx2` exists only where the probe found AVX2.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Build::Avx2(_) => unsafe { pack_avx2(values, out) },
        // SAFETY: a `Build::Avx512` exists only where the probe found
        // AVX-512F and POPCNT.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Build::Avx512(_) => unsafe { pack_avx512(values, out) },
    }
}

/// The body of [`compress_floats_into`] in the baseline build and
/// [`pack_avx2`].
#[inline(always)]
fn pack(values: &[f32], out: &mut Vec<u8>) {
    pack_with(values, out, pack_sparse);
}

/// Writes the header and the payload: the stored words itself, or, when
/// sparse is the shorter, a zeroed bitmap and word area that `fill` fills
/// from `values`. Every build shares it, so they choose the mode
/// and size the blob alike.
#[inline(always)]
fn pack_with(values: &[f32], out: &mut Vec<u8>, fill: impl FnOnce(&[f32], &mut [u8], &mut [u8])) {
    let n = u32::try_from(values.len()).expect("a float blob counts its words in a u32");
    // Summed in u32 lanes (n fits one) — twice the vector width of `count()`.
    let present = values.iter().map(|v| u32::from(v.to_bits() != 0)).sum::<u32>() as usize;
    let bitmap_len = values.len().div_ceil(8);
    let sparse = bitmap_len + 4 * present < 4 * values.len();
    let payload_len = if sparse { bitmap_len + 4 * present } else { 4 * values.len() };
    out.reserve_exact(FLOAT_HEADER_LEN + payload_len);
    out.push(if sparse { MODE_SPARSE } else { MODE_STORED });
    out.extend_from_slice(&n.to_le_bytes());
    let start = out.len();
    out.resize(start + payload_len, 0);
    let payload = &mut out[start..];
    if sparse {
        let (bitmap, words) = payload.split_at_mut(bitmap_len);
        fill(values, bitmap, words);
    } else {
        for (slot, v) in payload.chunks_exact_mut(4).zip(values) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// Fills a sparse payload: `bitmap` with `values`' presence bits and
/// `words`, exactly one slot per present word, with those words in order.
#[inline(always)]
fn pack_sparse(values: &[f32], bitmap: &mut [u8], words: &mut [u8]) {
    let mut words = words.chunks_exact_mut(4);
    // 64 words a step: the mask is built branch-free, and the copy loop
    // has one data-dependent exit per 64 words, not a branch a word.
    for (map, group) in bitmap.chunks_mut(8).zip(values.chunks(64)) {
        let mut mask = presence_mask(group);
        map.copy_from_slice(&mask.to_le_bytes()[..map.len()]);
        while mask != 0 {
            let word = group[mask.trailing_zeros() as usize].to_bits();
            words.next().expect("one slot per present word").copy_from_slice(&word.to_le_bytes());
            mask &= mask - 1;
        }
    }
}

/// Bit `i` set where word `i` of `group`, at most 64 words, is non-zero.
#[inline(always)]
fn presence_mask(group: &[f32]) -> u64 {
    let Ok(group) = <&[f32; 64]>::try_from(group) else {
        return group
            .iter()
            .enumerate()
            .fold(0, |mask, (i, v)| mask | u64::from(v.to_bits() != 0) << i);
    };
    // A whole group as two 32-bit halves filled side by side: with a fixed
    // trip count and one lane-sized bit per word, the compiler turns each
    // half into vector compares masked against constant bit patterns and
    // ORed, four words an instruction in SSE2 and eight in AVX2. One `u64`
    // over a run of unknown length made the baseline pack of a 1024 × 64
    // activation ~1.7× slower (~175 against ~100 µs, 2.1 GHz Xeon).
    let (low, high) = group.split_at(32);
    let (mut low_bits, mut high_bits) = (0u32, 0u32);
    for (i, (lo, hi)) in low.iter().zip(high).enumerate() {
        low_bits |= u32::from(lo.to_bits() != 0) << i;
        high_bits |= u32::from(hi.to_bits() != 0) << i;
    }
    u64::from(low_bits) | u64::from(high_bits) << 32
}

/// [`pack`] compiled with AVX2: the presence count and the 64-word masks
/// take eight words an instruction where the baseline takes four. Integer
/// compares and copies only, so the bytes cannot differ.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn pack_avx2(values: &[f32], out: &mut Vec<u8>) {
    pack(values, out);
}

/// [`pack`] with AVX-512: each full 16-word chunk of a sparse payload is
/// one load, one `vptestmd` whose 16 presence bits are the chunk's two
/// little-endian bitmap bytes, and one `vpcompressd` store of the present
/// words, contiguous and in index order — the bytes [`pack_sparse`]
/// writes. The last `n % 16` words go through [`pack_sparse`] itself.
/// rustc does not turn the baseline loop into `vpcompressd`, hence the
/// intrinsics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
#[allow(unsafe_code)]
fn pack_avx512(values: &[f32], out: &mut Vec<u8>) {
    use std::arch::x86_64::{
        _mm512_loadu_si512, _mm512_mask_compressstoreu_epi32, _mm512_test_epi32_mask,
    };
    pack_with(values, out, |values, bitmap, words| {
        let full = values.len() / 16 * 16;
        let (head, tail) = values.split_at(full);
        let mut written = 0;
        for (map, chunk) in bitmap.chunks_exact_mut(2).zip(head.chunks_exact(16)) {
            // SAFETY: `chunk` is 16 words, the 64 bytes the load reads.
            let v = unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) };
            let mask = _mm512_test_epi32_mask(v, v);
            map.copy_from_slice(&mask.to_le_bytes());
            let end = written + 4 * mask.count_ones() as usize;
            assert!(end <= words.len(), "one slot per present word");
            // SAFETY: the store writes one 4-byte word per set bit of
            // `mask` from byte `written` of `words`: bytes up to `end`,
            // which the assert above holds inside `words`.
            unsafe {
                _mm512_mask_compressstoreu_epi32(words.as_mut_ptr().add(written).cast(), mask, v)
            };
            written = end;
        }
        pack_sparse(tail, &mut bitmap[full / 8..], &mut words[written..]);
    });
}

fn le_word(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"))
}

/// Inverse of [`compress_floats`]. Strict: the blob must be exactly one
/// canonical encoding — no trailing bytes, bitmap popcount equal to the
/// words that follow, no bitmap bits past `n`, no present word that is
/// zero. The output allocation is bounded by what arrived (`4n ≤ 32 ×`
/// the blob length, the all-zero sparse case) before it is made.
///
/// The unpacking runs in the widest build the host has (`unpack_avx512`,
/// `unpack_avx2` or the baseline); every build returns the same words or
/// the same error.
///
/// # Errors
///
/// Returns [`DecodeError`] on any violation of the above.
pub fn decompress_floats(packed: &[u8]) -> Result<Vec<f32>, DecodeError> {
    unpack_as(packed, Build::host())
}

/// [`decompress_floats`] by `build`, whatever the host's widest.
fn unpack_as(packed: &[u8], build: Build) -> Result<Vec<f32>, DecodeError> {
    match build {
        Build::Baseline => unpack(packed),
        // SAFETY: a `Build::Avx2` exists only where the probe found AVX2.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        #[allow(unsafe_code)]
        Build::Avx2(_) => unsafe { unpack_avx2(packed) },
        // SAFETY: a `Build::Avx512` exists only where the probe found
        // AVX-512F and POPCNT.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Build::Avx512(_) => unsafe { unpack_avx512(packed) },
    }
}

/// [`unpack`] compiled with AVX2: the bitmap's popcount looks bytes up in
/// a table (`vpshufb`) where the baseline counts their bits arithmetically.
/// The same checks in the same order, so the value or the error cannot
/// differ.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn unpack_avx2(packed: &[u8]) -> Result<Vec<f32>, DecodeError> {
    unpack(packed)
}

/// [`unpack`] with AVX-512: each full 16-word chunk of a sparse payload is
/// one `vpexpandd` load of its present words into their lanes, the absent
/// ones zeroed, and one store, and a masked `vptestnmd` flags a present
/// word that is zero. The last `n % 16` words go through
/// [`unpack_sparse`] itself; the checks before the scatter are
/// [`unpack_with`]'s, in its order, so the value or the error cannot
/// differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
#[allow(unsafe_code)]
fn unpack_avx512(packed: &[u8]) -> Result<Vec<f32>, DecodeError> {
    use std::arch::x86_64::{
        _mm512_mask_testn_epi32_mask, _mm512_maskz_expandloadu_epi32, _mm512_storeu_si512,
    };
    unpack_with(packed, |out, bitmap, words| {
        let full = out.len() / 16 * 16;
        let (head, tail) = out.split_at_mut(full);
        let (mut read, mut zero_word) = (0, false);
        for (chunk, map) in head.chunks_exact_mut(16).zip(bitmap.chunks_exact(2)) {
            let mask = u16::from_le_bytes([map[0], map[1]]);
            let end = read + 4 * mask.count_ones() as usize;
            assert!(end <= words.len(), "popcount checked above");
            // SAFETY: the load reads one 4-byte word per set bit of `mask`
            // from byte `read` of `words`: bytes up to `end`, which the
            // assert above holds inside `words`.
            let v =
                unsafe { _mm512_maskz_expandloadu_epi32(mask, words.as_ptr().add(read).cast()) };
            zero_word |= _mm512_mask_testn_epi32_mask(mask, v, v) != 0;
            // SAFETY: `chunk` is 16 words, the 64 bytes the store writes.
            unsafe { _mm512_storeu_si512(chunk.as_mut_ptr().cast(), v) };
            read = end;
        }
        unpack_sparse(tail, &bitmap[full / 8..], &words[read..]) | zero_word
    })
}

/// The body of [`decompress_floats`] in the baseline build and
/// [`unpack_avx2`].
#[inline(always)]
fn unpack(packed: &[u8]) -> Result<Vec<f32>, DecodeError> {
    unpack_with(packed, unpack_sparse)
}

/// Every check of [`decompress_floats`], in order, around the sparse
/// scatter: `scatter` writes the present words of `words` into the
/// zeroed output where `bitmap` says, and says whether one was zero.
/// Every build shares it, so they refuse a blob alike.
#[inline(always)]
fn unpack_with(
    packed: &[u8],
    scatter: impl FnOnce(&mut [f32], &[u8], &[u8]) -> bool,
) -> Result<Vec<f32>, DecodeError> {
    if packed.len() < FLOAT_HEADER_LEN {
        return Err(DecodeError { msg: "missing float header" });
    }
    let (header, payload) = packed.split_at(FLOAT_HEADER_LEN);
    let n = le_word(&header[1..]) as usize;
    match header[0] {
        MODE_STORED => {
            if n.checked_mul(4) != Some(payload.len()) {
                return Err(DecodeError { msg: "stored float payload is not 4n bytes" });
            }
            Ok(payload.chunks_exact(4).map(|w| f32::from_bits(le_word(w))).collect())
        }
        MODE_SPARSE => {
            let bitmap_len = n.div_ceil(8);
            if payload.len() < bitmap_len {
                return Err(DecodeError { msg: "truncated float bitmap" });
            }
            let (bitmap, words) = payload.split_at(bitmap_len);
            let present: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
            if present.checked_mul(4) != Some(words.len()) {
                return Err(DecodeError {
                    msg: "float bitmap popcount disagrees with words present",
                });
            }
            if !n.is_multiple_of(8) && bitmap[bitmap_len - 1] >> (n % 8) != 0 {
                return Err(DecodeError { msg: "float bitmap has bits past n" });
            }
            let mut out = vec![0.0f32; n];
            if scatter(&mut out, bitmap, words) {
                return Err(DecodeError { msg: "present float word is zero" });
            }
            Ok(out)
        }
        _ => Err(DecodeError { msg: "unknown float blob mode" }),
    }
}

/// Scatters `words`, exactly one per set bit of `bitmap`, into the zeroed
/// `out` at their bits' indices; returns whether one of them was zero.
#[inline(always)]
fn unpack_sparse(out: &mut [f32], bitmap: &[u8], words: &[u8]) -> bool {
    let mut words = words.chunks_exact(4);
    let mut zero_word = false;
    // 64 slots a step: one data-dependent loop exit per 64 words.
    for (group, map) in out.chunks_mut(64).zip(bitmap.chunks(8)) {
        let mut bits = [0u8; 8];
        bits[..map.len()].copy_from_slice(map);
        let mut bits = u64::from_le_bytes(bits);
        while bits != 0 {
            let word = le_word(words.next().expect("popcount checked above"));
            zero_word |= word == 0;
            group[bits.trailing_zeros() as usize] = f32::from_bits(word);
            bits &= bits - 1;
        }
    }
    zero_word
}

/// Achieved compression ratio (`original / compressed`), 1.0 for empty
/// input.
pub fn ratio(original_len: usize, compressed_len: usize) -> f64 {
    if compressed_len == 0 {
        return 1.0;
    }
    original_len as f64 / compressed_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        let packed = compress(&[]);
        assert_eq!(decompress(&packed).expect("ok"), Vec::<u8>::new());
    }

    #[test]
    fn short_round_trip() {
        for data in [&b"a"[..], b"ab", b"abc", b"abcd"] {
            let packed = compress(data);
            assert_eq!(decompress(&packed).expect("ok"), data);
        }
    }

    #[test]
    fn repetitive_data_compresses() {
        let data = vec![42u8; 10_000];
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 10, "got {}", packed.len());
        assert_eq!(decompress(&packed).expect("ok"), data);
    }

    #[test]
    fn text_like_data_compresses() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .iter()
            .cycle()
            .take(4_000)
            .copied()
            .collect();
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 2);
        assert_eq!(decompress(&packed).expect("ok"), data);
    }

    #[test]
    fn truncated_stream_rejected() {
        let packed = compress(b"hello world hello world hello world");
        assert!(decompress(&packed[..packed.len() - 3]).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(decompress(&[9, 0, 0, 0, 0x07, 1]).is_err());
        assert!(decompress(&[1]).is_err());
    }

    #[test]
    fn bad_distance_rejected() {
        // Handcrafted: claims a match before any output exists.
        let mut bad = vec![8, 0, 0, 0];
        bad.push(0x01);
        bad.push(4); // len
        bad.push(9); // dist > out.len()
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn overlapping_match_decodes_like_rle() {
        // "aaaaaaaa…": match with dist 1 must copy byte-by-byte.
        let data = vec![b'a'; 300];
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("ok"), data);
    }

    /// Deterministic xorshift byte stream for the randomized round trips
    /// (stands in for proptest, which is unavailable offline).
    struct ByteGen(u64);

    impl ByteGen {
        fn next_u64(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next_u64() as u8).collect()
        }
    }

    #[test]
    fn randomized_round_trip() {
        let mut gen = ByteGen(0x5EED_0001);
        for case in 0..64 {
            let len = (gen.next_u64() % 2048) as usize;
            let data = gen.bytes(len);
            let packed = compress(&data);
            assert_eq!(decompress(&packed).expect("round trip"), data, "case {case}");
        }
    }

    fn assert_bit_exact_round_trip(values: &[f32]) -> Vec<u8> {
        let packed = compress_floats(values);
        assert!(packed.len() <= 5 + 4 * values.len(), "worst case is 5 bytes over raw");
        let back = decompress_floats(&packed).expect("round trip");
        assert_eq!(back.len(), values.len());
        for (i, (a, b)) in back.iter().zip(values).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "word {i} of {}", values.len());
        }
        // In place behind existing bytes, with nothing left over.
        let mut framed = vec![0xAB; 3];
        compress_floats_into(values, &mut framed);
        assert_eq!(&framed[..3], &[0xAB; 3]);
        assert_eq!(&framed[3..], &packed[..]);
        packed
    }

    /// Words no arithmetic comparison tells apart from zero or from each
    /// other: only the bit pattern survives as the criterion.
    const AWKWARD: [u32; 10] = [
        0x8000_0000, // -0.0
        0x7FC0_0001, // quiet NaN with a payload
        0xFFC0_2000, // negative quiet NaN with a payload
        0x7FA5_5A5A, // signalling NaN with a payload
        0xFFA5_5A5A, // negative signalling NaN with a payload
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x0000_0001, // smallest denormal
        0x807F_FFFF, // largest negative denormal
        0x0000_0000, // +0.0, the one absent word
    ];

    #[test]
    fn float_round_trips_are_bit_exact_at_every_bitmap_boundary() {
        let mut gen = ByteGen(0x5EED_0002);
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1023, 65536] {
            let all_zero = vec![0.0f32; n];
            let packed = assert_bit_exact_round_trip(&all_zero);
            assert_eq!(packed.len(), 5 + n.div_ceil(8), "an all-zero tensor is its bitmap");

            let dense: Vec<f32> =
                (0..n).map(|_| f32::from_bits(gen.next_u64() as u32 | 1)).collect();
            let packed = assert_bit_exact_round_trip(&dense);
            assert_eq!(packed.len(), 5 + 4 * n, "an all-non-zero tensor is stored");

            // Half zeros, the rest drawn from the awkward set and noise.
            let sprinkled: Vec<f32> = (0..n)
                .map(|_| {
                    let r = gen.next_u64();
                    f32::from_bits(match r % 4 {
                        0 | 1 => 0,
                        2 => AWKWARD[(r >> 8) as usize % AWKWARD.len()],
                        _ => (r >> 32) as u32,
                    })
                })
                .collect();
            assert_bit_exact_round_trip(&sprinkled);
        }
        assert_bit_exact_round_trip(&AWKWARD.map(f32::from_bits));
    }

    fn pack_by(values: &[f32], build: Build) -> Vec<u8> {
        let mut out = Vec::new();
        pack_as(values, &mut out, build);
        out
    }

    /// The wide builds by the name their cross-build line prints, each
    /// with the build where this CPU runs it.
    fn wide_builds() -> [(&'static str, Option<Build>); 2] {
        let mut wide = [("AVX2", None), ("AVX-512", None)];
        for &build in probe::builds() {
            match build {
                Build::Baseline => {}
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Build::Avx2(_) => wide[0].1 = Some(build),
                #[cfg(target_arch = "x86_64")]
                Build::Avx512(_) => wide[1].1 = Some(build),
            }
        }
        wide
    }

    /// Asserts that `build` packs `values` to the baseline's bytes and
    /// unpacks those bytes, and a few truncations and bit flips of them,
    /// to the baseline's words or its exact error. Returns how many blobs
    /// it unpacked.
    fn assert_builds_agree(build: Build, values: &[f32], gen: &mut ByteGen) -> usize {
        let packed = pack_by(values, Build::Baseline);
        assert_eq!(pack_by(values, build), packed, "{build:?}, {} words", values.len());
        let unpacked_by = |blob: &[u8], build| unpack_as(blob, build).map(|w| floats_bits(&w));
        let mut blobs = vec![packed.clone()];
        for _ in 0..4 {
            let cut = (gen.next_u64() % (packed.len() as u64 + 1)) as usize;
            blobs.push(packed[..cut].to_vec());
            // A flip in the header, the bitmap or the first words.
            let mut bad = packed.clone();
            let bit = gen.next_u64() as usize % (8 * packed.len().min(5 + values.len() / 8 + 8));
            bad[bit / 8] ^= 1 << (bit % 8);
            blobs.push(bad);
        }
        for blob in &blobs {
            assert_eq!(
                unpacked_by(blob, build),
                unpacked_by(blob, Build::Baseline),
                "{build:?}, {} words",
                values.len()
            );
        }
        assert_eq!(unpacked_by(&packed, Build::Baseline), Ok(floats_bits(values)));
        blobs.len()
    }

    fn floats_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn cross_build_blobs_are_byte_identical_in_both_modes_and_at_the_boundary() {
        for (name, build) in wide_builds() {
            let Some(build) = build else {
                println!("cross-build floats {name}: this CPU has no {name}; nothing compared");
                continue;
            };
            let mut gen = ByteGen(0x5EED_0005);
            let (mut packed, mut unpacked) = (0, 0);
            // Every length around the 16-word chunks and 64-word groups
            // up to 200, a 4 096-word edge and a stretch of 4 096 chunks.
            for n in (0..=200usize).chain([4095, 4096, 4097, 65536]) {
                // The sparse/stored boundary: sparse takes over one zero
                // word past a quarter of the bitmap's length.
                let tie = n.div_ceil(8) / 4;
                let shares = [0.0, 0.25, 0.5, 0.53, 1.0].map(|share| (share * n as f64) as usize);
                for zeros in shares.into_iter().chain([tie, tie + 1]).filter(|&z| z <= n) {
                    // `zeros` words +0.0 at scattered places, the rest drawn
                    // from the awkward set (all but its trailing +0.0) and
                    // noise.
                    let mut values: Vec<f32> = (0..n)
                        .map(|_| {
                            let r = gen.next_u64();
                            f32::from_bits(match r % 2 {
                                0 => AWKWARD[(r >> 8) as usize % (AWKWARD.len() - 1)],
                                _ => (r >> 32) as u32 | 1,
                            })
                        })
                        .collect();
                    let mut places: Vec<usize> = (0..n).collect();
                    for i in 0..zeros {
                        places.swap(i, i + (gen.next_u64() % (n - i) as u64) as usize);
                        values[places[i]] = 0.0;
                    }
                    if zeros == tie || zeros == tie + 1 {
                        let mode = if zeros == tie { MODE_STORED } else { MODE_SPARSE };
                        assert_eq!(pack_by(&values, build)[0], mode, "{n} words, {zeros} zero");
                    }
                    unpacked += assert_builds_agree(build, &values, &mut gen);
                    packed += 1;
                }
            }
            println!(
                "cross-build floats {name}: {} blobs compared against the baseline: {packed} \
                 packed byte for byte, {unpacked} unpacked bit for bit",
                packed + unpacked
            );
        }
    }

    #[test]
    fn sparse_is_chosen_exactly_when_it_is_shorter() {
        // 32 words: the bitmap costs 4 bytes, one zero word saves 4 — a
        // tie stays stored; two zero words tip it.
        let mut values = vec![1.0f32; 32];
        values[3] = 0.0;
        assert_eq!(compress_floats(&values)[0], MODE_STORED);
        values[17] = 0.0;
        let packed = compress_floats(&values);
        assert_eq!(packed[0], MODE_SPARSE);
        assert_eq!(packed.len(), 5 + 4 + 4 * 30);
        assert_bit_exact_round_trip(&values);
    }

    /// `[mode][n]` + payload.
    fn float_blob(mode: u8, n: u32, payload: &[u8]) -> Vec<u8> {
        let mut blob = vec![mode];
        blob.extend_from_slice(&n.to_le_bytes());
        blob.extend_from_slice(payload);
        blob
    }

    #[test]
    fn hand_built_non_canonical_float_blobs_are_rejected() {
        let one = 1.0f32.to_le_bytes();
        // The canonical sparse blob for [0, 1, 0, 0, 0, 0, 0, 0, 0, 1].
        let good = float_blob(MODE_SPARSE, 10, &[&[0b10u8, 0b10][..], &one, &one].concat());
        assert_eq!(decompress_floats(&good).expect("canonical").len(), 10);

        let cases: [(&str, Vec<u8>); 9] = [
            (
                "two bits, one word",
                float_blob(MODE_SPARSE, 10, &[&[0b10u8, 0b10][..], &one].concat()),
            ),
            (
                "one bit, two words",
                float_blob(MODE_SPARSE, 10, &[&[0b10u8, 0][..], &one, &one].concat()),
            ),
            (
                "bit past n",
                float_blob(MODE_SPARSE, 10, &[&[0b10u8, 0b100][..], &one, &one].concat()),
            ),
            (
                "set bit, zero word",
                float_blob(MODE_SPARSE, 10, &[&[0b10u8, 0b10][..], &one, &[0; 4]].concat()),
            ),
            ("trailing byte", [&good[..], &[0]].concat()),
            ("short bitmap", float_blob(MODE_SPARSE, 10, &[0b10])),
            ("stored, short", float_blob(MODE_STORED, 2, &one)),
            ("stored, trailing", float_blob(MODE_STORED, 1, &[&one[..], &[0]].concat())),
            ("unknown mode", float_blob(2, 1, &one)),
        ];
        for (what, blob) in cases {
            assert!(decompress_floats(&blob).is_err(), "{what} must be rejected");
        }
        // A header-only claim of 4 Gi words is refused on arithmetic alone.
        assert!(decompress_floats(&float_blob(MODE_SPARSE, u32::MAX, &[])).is_err());
        assert!(decompress_floats(&float_blob(MODE_STORED, u32::MAX, &[])).is_err());
        assert!(decompress_floats(&[]).is_err());
    }

    #[test]
    fn hostile_float_blobs_never_panic_or_over_allocate() {
        // Through every build this CPU runs: every truncation and every
        // single-bit flip of the header and bitmap (and a stretch of the
        // words) of blobs in both modes, a typed error or a value whose
        // size the bytes present justify.
        for &build in probe::builds() {
            let mut gen = ByteGen(0x5EED_0004);
            for n in [1usize, 8, 9, 15, 16, 17, 64, 200] {
                for zero_share in [0u64, 2, 4] {
                    let values: Vec<f32> = (0..n)
                        .map(|_| {
                            let r = gen.next_u64();
                            f32::from_bits(if r % 4 < zero_share {
                                0
                            } else {
                                (r >> 32) as u32 | 1
                            })
                        })
                        .collect();
                    let packed = pack_by(&values, build);
                    let check = |bytes: &[u8]| {
                        if let Ok(out) = unpack_as(bytes, build) {
                            assert!(
                                4 * out.capacity() <= 32 * bytes.len(),
                                "{build:?}: allocation above 32×"
                            );
                        }
                    };
                    for cut in 0..packed.len() {
                        assert!(
                            unpack_as(&packed[..cut], build).is_err(),
                            "{build:?}: cut {cut}/{n}"
                        );
                    }
                    let flippable = (5 + n.div_ceil(8) + 16).min(packed.len());
                    for bit in 0..8 * flippable {
                        let mut bad = packed.clone();
                        bad[bit / 8] ^= 1 << (bit % 8);
                        check(&bad);
                    }
                    for _ in 0..64 {
                        let len = (gen.next_u64() % 64) as usize;
                        check(&gen.bytes(len));
                    }
                }
            }
        }
    }

    #[test]
    fn structured_data_never_expands_much() {
        // Structured input: the codec may expand pathological data but
        // must stay within the literal-token framing overhead.
        let mut gen = ByteGen(0x5EED_0003);
        for _ in 0..64 {
            let seed = gen.next_u64() as u8;
            let len = (gen.next_u64() % 4096) as usize;
            let data: Vec<u8> = (0..len).map(|i| seed.wrapping_add((i / 7) as u8)).collect();
            let packed = compress(&data);
            assert!(packed.len() <= data.len() + 16 + data.len() / 64);
        }
    }
}
