//! Checkpoints and restores cost what a machine touched, and stay exact.
//!
//! `Memory` marks every page any writer touches, so `Machine::checkpoint`
//! walks only touched pages and `Machine::restore` zeroes only touched
//! pages. These tests hold that fast path to the full-image reference:
//! random interleavings of guest stores (code region included), host
//! loads, bit flips, runs, checkpoints and restores on Test-scale
//! application machines must produce exactly the sparse image a scan of
//! all memory produces, and restores must reproduce the checkpointed
//! bytes — in the same machine and in a fresh one. A structural gate
//! bounds the pages a clean application run touches, so a writer that
//! marks the whole image would fail here instead of silently bringing
//! back the O(image) cost.

use bioarch::apps::{App, Scale, Variant, Workload};
use power5_sim::{Checkpoint, CoreConfig, Machine};
use ppc_isa::{Memory, PAGE_SIZE};
use proptest::prelude::*;

/// The sparse image exactly as a scan of the whole memory builds it:
/// every nonzero page, in ascending address order.
fn full_scan_pages(mem: &Memory) -> Vec<(u32, Vec<u8>)> {
    let mut pages = Vec::new();
    for (i, page) in mem.bytes().chunks(PAGE_SIZE).enumerate() {
        if page.iter().any(|&b| b != 0) {
            pages.push(((i * PAGE_SIZE) as u32, page.to_vec()));
        }
    }
    pages
}

fn prepared(app: App, seed: u64) -> Machine {
    let wl = Workload::new(app, Scale::Test, seed);
    wl.prepare(Variant::Baseline, &CoreConfig::power5()).expect("prepare").machine
}

/// Where an operation lands.
#[derive(Debug, Clone, Copy)]
enum At {
    /// Offset into the code image.
    Code(u32),
    /// Within a few bytes of a page boundary.
    Boundary { page: u32, delta: i32 },
    /// Anywhere, including a little past the end of memory.
    Anywhere(u32),
}

#[derive(Debug, Clone)]
enum Op {
    /// A guest store of `width` bytes (1, 2 or 4), through `mem_mut`.
    Store { width: u32, at: At, value: u32 },
    /// `write_bytes` of `len` copies of `byte` (possibly zero).
    WriteBytes { at: At, len: usize, byte: u8 },
    /// `write_i32s`.
    WriteI32s { at: At, values: Vec<i32> },
    /// `Machine::flip_data_bit` (ignored out of range).
    FlipData { at: At, bit: u32 },
    /// `Machine::flip_code_bit` on a code word.
    FlipCode { word: u32, bit: u32 },
    /// A short timed run (it may trap on a corrupted image).
    Run { insns: u64 },
    /// Take and check a checkpoint; remember it with the image it saw.
    Checkpoint,
    /// Restore one of the remembered checkpoints.
    Restore { which: usize },
}

fn at_strategy() -> impl Strategy<Value = At> {
    prop_oneof![
        any::<u32>().prop_map(At::Code),
        (any::<u32>(), -8i32..8).prop_map(|(page, delta)| At::Boundary { page, delta }),
        any::<u32>().prop_map(At::Anywhere),
    ]
}

fn value_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), any::<u32>()]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (prop_oneof![Just(1u32), Just(2u32), Just(4u32)], at_strategy(), value_strategy())
            .prop_map(|(width, at, value)| Op::Store { width, at, value }),
        (at_strategy(), 0usize..3 * PAGE_SIZE, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(at, len, byte)| Op::WriteBytes { at, len, byte }),
        (at_strategy(), proptest::collection::vec(-2i32..3, 0..64))
            .prop_map(|(at, values)| Op::WriteI32s { at, values }),
        (at_strategy(), 0u32..8).prop_map(|(at, bit)| Op::FlipData { at, bit }),
        (any::<u32>(), 0u32..32).prop_map(|(word, bit)| Op::FlipCode { word, bit }),
        (1u64..4_000).prop_map(|insns| Op::Run { insns }),
        Just(Op::Checkpoint),
        any::<usize>().prop_map(|which| Op::Restore { which }),
    ]
}

/// The code region and memory size an operation resolves against.
struct Layout {
    code_base: u32,
    code_bytes: u32,
    mem_size: u32,
}

impl Layout {
    fn addr(&self, at: At) -> u32 {
        match at {
            At::Code(off) => self.code_base + off % self.code_bytes,
            At::Boundary { page, delta } => {
                let pages = self.mem_size / PAGE_SIZE as u32;
                ((page % pages) * PAGE_SIZE as u32).wrapping_add_signed(delta)
            }
            At::Anywhere(x) => x % (self.mem_size + 64),
        }
    }
}

/// Take a checkpoint and require its sparse image to equal the
/// full-scan reference.
fn checked_checkpoint(m: &Machine) -> Result<Checkpoint, TestCaseError> {
    let ck = m.checkpoint();
    let reference = full_scan_pages(m.mem());
    prop_assert_eq!(ck.pages.len(), reference.len(), "nonzero page count");
    prop_assert!(ck.pages == reference, "sparse image differs from a full scan");
    Ok(ck)
}

/// Restore `ck` into `m` and require the checkpointed image byte for
/// byte, and a checkpoint of the result equal to `ck`.
fn checked_restore(m: &mut Machine, ck: &Checkpoint, image: &Memory) -> Result<(), TestCaseError> {
    m.restore(ck).map_err(TestCaseError::fail)?;
    prop_assert!(
        m.mem().bytes() == image.bytes(),
        "restored image differs from the checkpointed one"
    );
    // Equality ignores touch history: the restored memory has touched
    // exactly the checkpoint's nonzero pages, the saved copy whatever
    // its writers hit.
    prop_assert!(m.mem() == image, "memories with equal bytes compare unequal");
    prop_assert!(checked_checkpoint(m)? == *ck, "checkpoint after restore differs");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn checkpoints_and_restores_match_the_full_image(
        app in 0usize..4,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let app = App::all()[app];
        let mut m = prepared(app, 3);
        let start = checked_checkpoint(&m)?;
        let layout = Layout {
            code_base: start.code_base,
            code_bytes: start.code_len as u32 * 4,
            mem_size: start.mem_size as u32,
        };
        let mut saved = vec![(start, m.mem().clone())];
        for op in &ops {
            match *op {
                Op::Store { width, at, value } => {
                    let addr = layout.addr(at);
                    let mem = m.mem_mut();
                    // Out-of-range and misaligned stores fault and write nothing.
                    let _ = match width {
                        1 => mem.store_u8(addr, value as u8),
                        2 => mem.store_u16(addr & !1, value as u16),
                        _ => mem.store_u32(addr & !3, value),
                    };
                }
                Op::WriteBytes { at, len, byte } => {
                    let _ = m.mem_mut().write_bytes(layout.addr(at), &vec![byte; len]);
                }
                Op::WriteI32s { at, ref values } => {
                    let _ = m.mem_mut().write_i32s(layout.addr(at) & !3, values);
                }
                Op::FlipData { at, bit } => m.flip_data_bit(layout.addr(at), bit),
                Op::FlipCode { word, bit } => {
                    m.flip_code_bit(layout.code_base + (word % (layout.code_bytes / 4)) * 4, bit);
                }
                Op::Run { insns } => {
                    let _ = m.run_timed(insns);
                }
                Op::Checkpoint => {
                    let ck = checked_checkpoint(&m)?;
                    saved.push((ck, m.mem().clone()));
                }
                Op::Restore { which } => {
                    let (ck, image) = &saved[which % saved.len()];
                    checked_restore(&mut m, ck, image)?;
                }
            }
        }

        // The final state, and every remembered checkpoint, restore
        // exactly into a machine that has never run or touched a page.
        saved.push((checked_checkpoint(&m)?, m.mem().clone()));
        for (ck, image) in &saved {
            let mut fresh = Machine::new(CoreConfig::power5(), &[], 0, 0, ck.mem_size);
            checked_restore(&mut fresh, ck, image)?;
        }
    }
}

/// Equality compares bytes only, whatever pages the writers touched.
#[test]
fn equal_bytes_compare_equal_across_touch_histories() {
    let fresh = Memory::new(4 * PAGE_SIZE + 100);
    let mut zero_stores = fresh.clone();
    zero_stores.store_u8(5, 0).unwrap();
    zero_stores.store_u32(PAGE_SIZE as u32, 0).unwrap();
    zero_stores.write_bytes(2 * PAGE_SIZE as u32 - 3, &[0; 6]).unwrap();
    let mut cleared = fresh.clone();
    cleared.write_bytes(0, &[7; 4 * PAGE_SIZE + 100]).unwrap();
    cleared.clear();
    assert_eq!(zero_stores.touched_pages().count(), 3);
    assert_eq!(cleared.touched_pages().count(), 0);
    assert_eq!(fresh, zero_stores);
    assert_eq!(fresh, cleared);

    let mut flipped = fresh.clone();
    flipped.flip_bit(4 * PAGE_SIZE as u32 + 99, 2);
    assert_ne!(fresh, flipped);
    let pages: Vec<_> = flipped.touched_pages().map(|(addr, page)| (addr, page.len())).collect();
    assert_eq!(pages, [(4 * PAGE_SIZE as u32, 100)], "the short last page is tracked");
    flipped.flip_bit(1 << 30, 0); // out of range: ignored, touches nothing
    assert_eq!(flipped.touched_pages().count(), 1);
}

/// The most pages a clean Test-scale application run may touch. Every
/// app touches a few dozen at most (code, inputs, DP rows, stack); an
/// image-wide writer would mark all 2048.
const MAX_TOUCHED_PAGES: usize = 64;

#[test]
fn clean_runs_touch_a_bounded_number_of_pages() {
    for app in App::all() {
        let mut m = prepared(app, 7);
        let r = m.run_timed(2_000_000_000).expect("clean run");
        assert!(r.halted, "{}: the run halts", app.name());
        let touched = m.mem().touched_pages().count();
        let pages = m.mem().size() / PAGE_SIZE;
        assert!(
            touched <= MAX_TOUCHED_PAGES,
            "{}: {touched} of {pages} pages touched, more than {MAX_TOUCHED_PAGES}",
            app.name()
        );
    }
}
