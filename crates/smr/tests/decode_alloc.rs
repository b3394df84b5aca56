//! Allocation accounting for decoders that read attacker-controlled bytes.
//!
//! A sequence's length prefix is bounded only by the bytes remaining, so a
//! frame of N bytes can claim N elements. Decoding must not reserve
//! `N × size_of::<T>()` on that claim: a 64 MiB frame claiming 64 Mi
//! 112-byte `ConsensusMsg`s would otherwise reserve ≈ 7.5 GB before its
//! first element fails to decode — an abort on any host that does not
//! overcommit. This binary installs a counting global allocator (hence one
//! test: other tests would allocate concurrently) and checks that crafted
//! frames fail on the peer path (full `SmrMsg` decode) reserving at most
//! twice their own length, and on the client path
//! (`SmrMsg::decode_request`) reserving nothing.

use smartchain_codec::{from_bytes, Encode};
use smartchain_smr::ordering::SmrMsg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(n: usize) {
    LIVE.fetch_sub(n, Ordering::SeqCst);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        out
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns how far the live heap rose above its level at the
/// start (bytes requested and not yet freed, at the worst moment).
fn peak_growth(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

/// An `SmrMsg` payload: `head` (discriminant and fixed fields), then a
/// sequence prefix claiming one element per remaining byte, then filler
/// that fails to decode as the first element.
fn crafted(head: &[u8], total: usize) -> Vec<u8> {
    let mut payload = head.to_vec();
    let claim = total - head.len() - 4;
    (claim as u32).encode(&mut payload);
    payload.resize(total, 0xFF);
    payload
}

#[test]
fn crafted_frames_reserve_at_most_twice_their_length() {
    const LEN: usize = 8 << 20;
    // InstanceRep { instance, decided: None, msgs: <claim> }.
    let mut instance_rep = vec![8u8];
    7u64.encode(&mut instance_rep);
    instance_rep.push(0);
    // StateRep { covered, snapshot: None, first_batch, batches: <claim> }.
    let mut state_rep = vec![5u8];
    0u64.encode(&mut state_rep);
    state_rep.push(0);
    1u64.encode(&mut state_rep);
    for head in [instance_rep, state_rep] {
        let payload = crafted(&head, LEN);
        let peer = peak_growth(|| assert!(from_bytes::<SmrMsg>(&payload).is_err()));
        assert!(
            peer <= 2 * LEN,
            "discriminant {}: peer decode reserved {peer} bytes for a {LEN}-byte frame",
            head[0]
        );
        // The client path does not decode replica-to-replica variants at
        // all, so it reserves nothing for them.
        let client = peak_growth(|| assert!(SmrMsg::decode_request(&payload).is_err()));
        assert_eq!(
            client, 0,
            "discriminant {}: client decode reserved {client} bytes",
            head[0]
        );
    }
}
