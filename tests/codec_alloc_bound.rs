//! The allocation half of the hostile-bytes contract: whatever arrives, a
//! decoder asks the allocator for no block larger than 32× the bytes it
//! was handed (the all-zero tensor, one bit a word, is what sets 32), and
//! `read_message` for no more than its eager-reserve cap on the word of a
//! length prefix. The encoder's half: `compress_floats` asks for one block
//! of exactly the blob's size, in the build the host runs. Lives in a
//! binary of its own because it swaps the global allocator for one that
//! records the requests of the test thread.

use gcode::compress::{compress_floats, decompress_floats};
use gcode::engine::{decode_state, encode_state, read_message, WireState};
use gcode::graph::CsrGraph;
use gcode::tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Requests this thread made since the last reset, and the largest
    /// one. `const`-initialised and without a destructor, so touching it
    /// from inside the allocator allocates nothing.
    static REQUESTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; recording the size reads and writes a
// thread-local `Cell` and cannot allocate, unwind or alias the block.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

fn note(size: usize) {
    // `try_with`: the allocator may run while the thread's locals are
    // being torn down.
    let _ = REQUESTS.try_with(|seen| {
        let (count, largest) = seen.get();
        seen.set((count + 1, largest.max(size)));
    });
}

/// Runs `f` and returns how many blocks it asked for and the largest.
fn requests<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    REQUESTS.with(|seen| seen.set((0, 0)));
    let out = f();
    (out, REQUESTS.with(Cell::get))
}

/// Runs `f` and returns the largest block it asked for.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, (_, largest)) = requests(f);
    (out, largest)
}

/// An error message is the one allocation a rejection may make.
const ERROR_SLACK: usize = 256;

fn assert_bounded(what: &str, input_len: usize, largest: usize) {
    assert!(
        largest <= 32 * input_len + ERROR_SLACK,
        "{what}: a {largest}-byte request on {input_len} bytes of input"
    );
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn no_decoder_allocates_beyond_what_arrived() {
    let mut rng = 0x5EED_0A11u64;

    // The encoder: one block, the header and the shorter payload exactly.
    for n in [0usize, 1, 7, 8, 31, 64, 1000, 4097, 65536] {
        for zero_share in [0u64, 1, 2, 4] {
            let values: Vec<f32> = (0..n)
                .map(|_| {
                    let r = xorshift(&mut rng);
                    if r % 4 < zero_share {
                        0.0
                    } else {
                        f32::from_bits((r >> 32) as u32 | 1)
                    }
                })
                .collect();
            let present = values.iter().filter(|v| v.to_bits() != 0).count();
            let payload = (n.div_ceil(8) + 4 * present).min(4 * n);
            let (packed, blocks) = requests(|| compress_floats(&values));
            assert_eq!(packed.len(), 5 + payload, "{n} words, {present} present");
            assert_eq!(blocks, (1, 5 + payload), "{n} words, {present} present: (blocks, bytes)");
        }
    }

    // Float blobs: headers that claim up to 4 Gi words over a few bytes.
    for mode in 0..=2u8 {
        for n in [1u32, 1 << 16, 1 << 24, u32::MAX] {
            for payload in [0usize, 1, 9, 200] {
                let mut blob = vec![mode];
                blob.extend_from_slice(&n.to_le_bytes());
                blob.extend((0..payload).map(|_| xorshift(&mut rng) as u8));
                let (_, largest) = largest_request(|| decompress_floats(&blob));
                assert_bounded("float header claim", blob.len(), largest);
            }
        }
    }
    // …and every single-bit flip of a real blob's header and bitmap.
    let values: Vec<f32> = (0..600).map(|i| if i % 3 == 0 { 0.0 } else { i as f32 }).collect();
    let packed = compress_floats(&values);
    for bit in 0..8 * (5 + 75) {
        let mut bad = packed.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let (_, largest) = largest_request(|| decompress_floats(&bad));
        assert_bounded("float bit flip", bad.len(), largest);
    }

    // State bodies: flips of the fixed fields, the float header and the
    // graph header (node count, degree, the first degrees), with a
    // regular and an irregular graph behind them.
    for graph in [
        CsrGraph::from_degrees(vec![2; 300], (0..600).map(|i| i % 300).collect()),
        CsrGraph::from_degrees((0..300).map(|u| u % 3), (0..300).collect()),
    ] {
        let features = Matrix::from_vec(300, 2, values[..600].to_vec());
        let body = encode_state(&WireState { frame_id: 1, features, graph: Some(graph), label: 0 });
        let float_len = u32::from_le_bytes(body[20..24].try_into().expect("4 bytes")) as usize;
        let graph_at = 24 + float_len + 1;
        for byte in (0..24 + 5 + 75).chain(graph_at - 1..graph_at + 24) {
            for bit in 0..8 {
                let mut bad = body.clone();
                bad[byte] ^= 1 << bit;
                let (_, largest) = largest_request(|| decode_state(&bad));
                assert_bounded("state bit flip", bad.len(), largest);
            }
        }
        for cut in [0, 8, 23, 24, 30, graph_at, graph_at + 3, graph_at + 9, body.len() - 1] {
            let (result, largest) = largest_request(|| decode_state(&body[..cut]));
            assert!(result.is_err(), "cut {cut}");
            assert_bounded("state truncation", cut, largest);
        }
    }

    // A header that promises the 64 MiB cap, seven bytes, then EOF.
    let mut wire = (64u32 << 20).to_le_bytes().to_vec();
    wire.extend_from_slice(b"seven b");
    let (result, largest) = largest_request(|| read_message(std::io::Cursor::new(&wire)));
    assert!(result.is_err(), "a truncated body is an error");
    assert!(largest <= 1 << 20, "read_message reserved {largest} bytes on a header's word");
}
