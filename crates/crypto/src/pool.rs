//! A parallel signature-verification pool.
//!
//! BFT-SMaRt pushes client-signature checks into a pool of worker threads so
//! multi-core servers verify in parallel instead of inside the (sequential)
//! state machine — the paper's Table I shows this alone more than doubles
//! SMaRtCoin's throughput. This module provides the same facility for real
//! (wall-clock) deployments; the discrete-event simulator models the pool's
//! *virtual-time* behaviour separately in `smartchain-sim`.
//!
//! Built on a std-only MPMC work queue (mutex + condvar): workers block on
//! `JobQueue::pop`, producers fan jobs in with `JobQueue::push`, and the
//! queue closing is the shutdown signal.

use crate::keys::{PublicKey, Signature};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One verification job.
struct Job {
    index: usize,
    public: PublicKey,
    msg: Vec<u8>,
    sig: Signature,
}

/// A minimal multi-producer multi-consumer queue (std has only MPSC).
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut st = self.state.lock().expect("pool queue lock");
        st.0.push_back(job);
        self.ready.notify_one();
    }

    /// Blocks until a job is available; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("pool queue lock");
        loop {
            if let Some(job) = st.0.pop_front() {
                return Some(job);
            }
            if st.1 {
                return None;
            }
            st = self.ready.wait(st).expect("pool queue lock");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("pool queue lock");
        st.1 = true;
        self.ready.notify_all();
    }
}

/// A fixed-size pool of verification workers.
///
/// # Examples
///
/// ```
/// use smartchain_crypto::keys::{Backend, SecretKey};
/// use smartchain_crypto::pool::VerifyPool;
///
/// let pool = VerifyPool::new(4);
/// let sk = SecretKey::from_seed(Backend::Sim, &[1u8; 32]);
/// let batch: Vec<_> = (0..16u8)
///     .map(|i| (sk.public_key(), vec![i], sk.sign(&[i])))
///     .collect();
/// let results = pool.verify_batch(&batch);
/// assert!(results.iter().all(|&ok| ok));
/// ```
pub struct VerifyPool {
    jobs: Arc<JobQueue>,
    /// Guarded so the pool is `Sync` (shareable via `Arc` across replica
    /// components); the lock spans an entire batch, keeping each call's
    /// results from interleaving with another thread's.
    results_rx: Mutex<mpsc::Receiver<(usize, bool)>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for VerifyPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl VerifyPool {
    /// Spawns a pool with `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> VerifyPool {
        assert!(workers > 0, "pool needs at least one worker");
        let jobs = Arc::new(JobQueue::new());
        let (res_tx, res_rx) = mpsc::channel::<(usize, bool)>();
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::clone(&jobs);
            let tx = res_tx.clone();
            handles.push(std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    let ok = job.public.verify(&job.msg, &job.sig);
                    if tx.send((job.index, ok)).is_err() {
                        break;
                    }
                }
            }));
        }
        // res_tx drops here: each worker holds its own clone, so the channel
        // closes — and recv() fails fast — iff every worker died.
        drop(res_tx);
        VerifyPool {
            jobs,
            results_rx: Mutex::new(res_rx),
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Verifies a batch in parallel, returning per-item results in order.
    pub fn verify_batch(&self, batch: &[(PublicKey, Vec<u8>, Signature)]) -> Vec<bool> {
        let n = batch.len();
        let results_rx = self.results_rx.lock().expect("pool results lock");
        for (index, (public, msg, sig)) in batch.iter().enumerate() {
            self.jobs.push(Job {
                index,
                public: *public,
                msg: msg.clone(),
                sig: *sig,
            });
        }
        let mut results = vec![false; n];
        for _ in 0..n {
            let (index, ok) = results_rx.recv().expect("workers alive while pool exists");
            results[index] = ok;
        }
        results
    }

    /// Verifies a batch of [`VerifyItem`]s, keeping each item's tag with its
    /// verdict — the wall-clock backend of the pipeline's verify stage.
    /// Consumes the items, so messages move into the worker jobs uncopied.
    pub fn verify_tagged<T>(&self, batch: Vec<VerifyItem<T>>) -> Vec<(T, bool)> {
        let n = batch.len();
        let results_rx = self.results_rx.lock().expect("pool results lock");
        let mut tags = Vec::with_capacity(n);
        for (index, item) in batch.into_iter().enumerate() {
            tags.push(item.tag);
            self.jobs.push(Job {
                index,
                public: item.public,
                msg: item.msg,
                sig: item.sig,
            });
        }
        let mut results = vec![false; n];
        for _ in 0..n {
            let (index, ok) = results_rx.recv().expect("workers alive while pool exists");
            results[index] = ok;
        }
        tags.into_iter().zip(results).collect()
    }
}

impl Drop for VerifyPool {
    fn drop(&mut self) {
        self.jobs.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A signature check carrying an arbitrary tag through the verify stage
/// (e.g. the request the signature belongs to).
#[derive(Clone, Debug)]
pub struct VerifyItem<T> {
    /// Caller's payload, returned with the verdict.
    pub tag: T,
    /// Claimed signer.
    pub public: PublicKey,
    /// Signed message bytes.
    pub msg: Vec<u8>,
    /// The signature to check.
    pub sig: Signature,
}

/// Verifies a batch sequentially — the baseline the pool is compared against.
pub fn verify_batch_sequential(batch: &[(PublicKey, Vec<u8>, Signature)]) -> Vec<bool> {
    batch
        .iter()
        .map(|(public, msg, sig)| public.verify(msg, sig))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{Backend, SecretKey};

    fn batch(n: usize) -> Vec<(PublicKey, Vec<u8>, Signature)> {
        let sk = SecretKey::from_seed(Backend::Sim, &[11u8; 32]);
        (0..n)
            .map(|i| {
                let msg = format!("tx-{i}").into_bytes();
                let sig = sk.sign(&msg);
                (sk.public_key(), msg, sig)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let b = batch(64);
        let pool = VerifyPool::new(4);
        assert_eq!(pool.verify_batch(&b), verify_batch_sequential(&b));
    }

    #[test]
    fn detects_bad_signatures_at_right_positions() {
        let mut b = batch(16);
        // Corrupt entries 3 and 11 by swapping their messages.
        let m3 = b[3].1.clone();
        b[3].1 = b[11].1.clone();
        b[11].1 = m3;
        let pool = VerifyPool::new(3);
        let results = pool.verify_batch(&b);
        for (i, ok) in results.iter().enumerate() {
            assert_eq!(*ok, i != 3 && i != 11, "index {i}");
        }
    }

    #[test]
    fn empty_batch() {
        let pool = VerifyPool::new(2);
        assert!(pool.verify_batch(&[]).is_empty());
    }

    #[test]
    fn pool_reusable_across_batches() {
        let pool = VerifyPool::new(2);
        for _ in 0..3 {
            let b = batch(8);
            assert!(pool.verify_batch(&b).iter().all(|&ok| ok));
        }
    }

    #[test]
    fn tagged_batch_keeps_tag_with_verdict() {
        let sk = SecretKey::from_seed(Backend::Sim, &[12u8; 32]);
        let pool = VerifyPool::new(2);
        let mut items: Vec<VerifyItem<usize>> = (0..8usize)
            .map(|i| {
                let msg = vec![i as u8];
                VerifyItem {
                    tag: i,
                    public: sk.public_key(),
                    sig: sk.sign(&msg),
                    msg,
                }
            })
            .collect();
        items[5].msg = vec![0xff]; // breaks item 5 only
        let out = pool.verify_tagged(items);
        for (tag, ok) in out {
            assert_eq!(ok, tag != 5, "tag {tag}");
        }
    }
}
