//! Allocation accounting for one checkpoint over a large coin table.
//!
//! `DurableApp::checkpoint` encodes the application state, hashes it into
//! the state root and installs it with its meta in the snapshot store. The
//! state should be materialised once: no sorted entry list beside the
//! encoding, no concatenated state-and-meta copy for the CRC. This binary
//! installs a counting global allocator (hence one test: other tests would
//! allocate concurrently) and checks that one checkpoint over a 50k-coin
//! `SmartCoinApp` raises the live heap by at most 1.25 × the snapshot.

use smartchain_coin::tx::{CoinTx, Output};
use smartchain_coin::SmartCoinApp;
use smartchain_crypto::keys::{Backend, PublicKey, SecretKey};
use smartchain_smr::app::Application;
use smartchain_smr::durability::DurableApp;
use smartchain_smr::types::Request;
use smartchain_storage::testing::TempDir;
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
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

const COINS: u64 = 50_000;

/// `SmartCoinApp` whose reset state holds `COINS` synthetic coins, since
/// `DurableApp::open` resets the app it is given.
struct Genesis {
    inner: SmartCoinApp,
    owner: PublicKey,
}

impl Application for Genesis {
    fn execute(&mut self, request: &Request) -> Vec<u8> {
        self.inner.execute(request)
    }

    fn take_snapshot(&self) -> Vec<u8> {
        self.inner.take_snapshot()
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) {
        self.inner.install_snapshot(snapshot);
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.inner.populate_synthetic(self.owner, COINS);
    }
}

#[test]
fn checkpoint_copies_the_state_once() {
    let minter = SecretKey::from_seed(Backend::Sim, &[1; 32]);
    let app = Genesis {
        inner: SmartCoinApp::new(vec![minter.public_key()]),
        owner: minter.public_key(),
    };
    let dir = TempDir::new("smartchain-ckpt-alloc");
    let mut durable = DurableApp::open(app, &dir, u64::MAX).unwrap();
    // One batch from 64 clients, so the meta carries reply records.
    let mint = CoinTx::Mint {
        outputs: vec![Output {
            owner: minter.public_key(),
            value: 1,
        }],
    };
    let requests: Vec<Request> = (0..64u64)
        .map(|client| {
            let payload = smartchain_codec::to_bytes(&mint);
            let sig = minter.sign(&Request::sign_payload(client, 1, &payload));
            Request {
                client,
                seq: 1,
                payload,
                signature: Some((minter.public_key(), sig)),
            }
        })
        .collect();
    durable.apply_requests(&requests).unwrap();
    assert_eq!(durable.app().inner.utxo_count() as u64, COINS + 64);
    let snapshot_len = durable.app().take_snapshot().len();

    let (result, peak) = peak_growth(|| durable.checkpoint());
    result.unwrap();
    let ratio = peak as f64 / snapshot_len as f64;
    println!("checkpoint peak {peak} B over a {snapshot_len}-byte snapshot: {ratio:.2}x");
    assert!(
        ratio <= 1.25,
        "checkpoint raised the live heap by {peak} B, {ratio:.2}x the {snapshot_len}-byte snapshot"
    );
}
