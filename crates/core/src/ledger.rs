//! The replica-local ledger: an append-only chain of blocks over a
//! [`RecordLog`], with the in-memory tail cache used for state transfer
//! (Algorithm 1's `resetCached`/`Txs[]`/`Res[]` arrays).

use crate::block::{Block, BlockBody, Certificate, Genesis};
use smartchain_codec::{from_bytes, to_bytes};
use smartchain_crypto::Hash;
use smartchain_storage::RecordLog;
use std::collections::BTreeMap;
use std::io;

/// Tag framing the record that anchors a checkpoint-based fast-forward
/// (see [`Ledger::install_checkpoint_anchor`]).
const ANCHOR_TAG: &[u8; 8] = b"SCANCHOR";

fn anchor_record(covered: u64, anchor: &Hash) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + 32);
    out.extend_from_slice(ANCHOR_TAG);
    out.extend_from_slice(&covered.to_le_bytes());
    out.extend_from_slice(anchor);
    out
}

fn parse_anchor(record: &[u8]) -> Option<(u64, Hash)> {
    if record.len() != 48 || &record[..8] != ANCHOR_TAG {
        return None;
    }
    let covered = u64::from_le_bytes(record[8..16].try_into().ok()?);
    let mut anchor = Hash::default();
    anchor.copy_from_slice(&record[16..48]);
    Some((covered, anchor))
}

/// A chain of blocks rooted in a genesis configuration.
///
/// Record 0 of the underlying log is the encoded genesis; record `i` is
/// block `i` (or, after a checkpoint-based fast-forward, an anchor marker /
/// padding for the summarized prefix). The ledger keeps lightweight tail
/// state (`last hash`, counters) in memory and can be fully rebuilt from
/// the log on recovery.
pub struct Ledger<L: RecordLog> {
    log: L,
    genesis: Genesis,
    /// Number of the next block to append (= current length incl. genesis).
    next_number: u64,
    last_block_hash: Hash,
    last_reconfig: u64,
    last_checkpoint: u64,
    /// Certificates attached after append (strong variant), by block
    /// number; [`Ledger::block`] attaches them on read.
    certificates: BTreeMap<u64, Certificate>,
}

impl<L: RecordLog> std::fmt::Debug for Ledger<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger")
            .field("next_number", &self.next_number)
            .field("last_reconfig", &self.last_reconfig)
            .field("last_checkpoint", &self.last_checkpoint)
            .finish_non_exhaustive()
    }
}

impl<L: RecordLog> Ledger<L> {
    /// Creates a fresh ledger, writing the genesis record (Algorithm 1,
    /// line 10), or recovers an existing one from the log.
    ///
    /// # Errors
    ///
    /// Fails on storage errors or if the log contains a different genesis.
    pub fn open(log: L, genesis: Genesis) -> io::Result<Ledger<L>> {
        if !log.is_empty() {
            // Recovering an existing log: it must belong to this genesis.
            let stored: Genesis = log
                .read(0)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing genesis"))
                .and_then(|bytes| {
                    from_bytes(&bytes)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                })?;
            if stored != genesis {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "genesis mismatch",
                ));
            }
        }
        let mut ledger = Ledger {
            log,
            genesis,
            next_number: 1,
            last_block_hash: Hash::default(),
            last_reconfig: 0,
            last_checkpoint: 0,
            certificates: BTreeMap::new(),
        };
        // One recovery scan for both fresh opens and crash reloads.
        ledger.reload()?;
        Ok(ledger)
    }

    /// The genesis configuration.
    pub fn genesis(&self) -> &Genesis {
        &self.genesis
    }

    /// Number the next block will get.
    pub fn next_number(&self) -> u64 {
        self.next_number
    }

    /// Height (number of the last appended block; 0 = only genesis).
    pub fn height(&self) -> u64 {
        self.next_number - 1
    }

    /// Hash chained into the next block.
    pub fn last_block_hash(&self) -> Hash {
        self.last_block_hash
    }

    /// Number of the last reconfiguration block (0 = none).
    pub fn last_reconfig(&self) -> u64 {
        self.last_reconfig
    }

    /// Number of the last block covered by a checkpoint (0 = none).
    pub fn last_checkpoint(&self) -> u64 {
        self.last_checkpoint
    }

    /// Records that a checkpoint now covers everything up to `block`.
    pub fn set_last_checkpoint(&mut self, block: u64) {
        self.last_checkpoint = self.last_checkpoint.max(block);
    }

    /// Builds the next block from a body (hashes, linkage, counters).
    /// `state_root` is the Merkle root of the application state after this
    /// block executes; the header's `hash_results` binds it.
    pub fn build_next(&self, body: BlockBody, state_root: Hash) -> Block {
        Block::build(
            self.next_number,
            self.last_reconfig,
            self.last_checkpoint,
            self.last_block_hash,
            body,
            state_root,
        )
    }

    /// Appends a built block.
    ///
    /// # Errors
    ///
    /// Rejects blocks whose number or parent hash do not extend the chain,
    /// and propagates storage errors.
    pub fn append(&mut self, block: &Block) -> io::Result<()> {
        if block.header.number != self.next_number {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "expected block {}, got {}",
                    self.next_number, block.header.number
                ),
            ));
        }
        if block.header.hash_last_block != self.last_block_hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "parent hash mismatch",
            ));
        }
        if !block.commitments_valid() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "commitment hash mismatch",
            ));
        }
        self.log.append(&to_bytes(block))?;
        self.last_block_hash = block.header.hash();
        if matches!(block.body, BlockBody::Reconfiguration { .. }) {
            self.last_reconfig = block.header.number;
        }
        self.next_number += 1;
        Ok(())
    }

    /// Forces buffered blocks to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.log.sync()
    }

    /// Attaches a certificate to appended block `number` (strong variant:
    /// the certificate is written after the PERSIST phase completes,
    /// Algorithm 1 line 34). [`RecordLog`] has no in-place update, so the
    /// certificate is kept beside the log and attached whenever the block
    /// is read; a crash reload drops it.
    pub fn set_certificate(&mut self, number: u64, certificate: Certificate) {
        if number < self.next_number {
            self.certificates.insert(number, certificate);
        }
    }

    /// Reads block `number` (1-based; 0 returns `None` — use
    /// [`Ledger::genesis`]).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn block(&self, number: u64) -> io::Result<Option<Block>> {
        if number == 0 || number >= self.next_number {
            return Ok(None);
        }
        let Some(bytes) = self.log.read(number)? else {
            return Ok(None);
        };
        Ok(from_bytes::<Block>(&bytes).ok().map(|mut block| {
            if let Some(certificate) = self.certificates.get(&number) {
                block.certificate = certificate.clone();
            }
            block
        }))
    }

    /// All blocks from `from` (inclusive) to the tip, for state transfer.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn blocks_from(&self, from: u64) -> io::Result<Vec<Block>> {
        let mut out = Vec::new();
        for n in from.max(1)..self.next_number {
            if let Some(b) = self.block(n)? {
                out.push(b);
            }
        }
        Ok(out)
    }
}

impl<L: RecordLog> Ledger<L> {
    /// The underlying log (e.g. a durability engine, for policy queries).
    pub fn log(&self) -> &L {
        &self.log
    }

    /// Mutable access to the underlying log (e.g. to drive a durability
    /// engine's group-commit flush point).
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }

    /// Re-derives the in-memory tail state from the log — used after a
    /// (simulated) crash dropped the log's non-durable suffix. Volatile
    /// certificates are discarded; if even the genesis record is
    /// gone (∞-persistence), it is rewritten so the chain can regrow.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn reload(&mut self) -> io::Result<()> {
        self.certificates.clear();
        self.next_number = 1;
        self.last_block_hash = self.genesis.hash();
        self.last_reconfig = 0;
        self.last_checkpoint = 0;
        if self.log.is_empty() {
            self.log.append(&to_bytes(&self.genesis))?;
            self.log.sync()?;
            return Ok(());
        }
        for i in 1..self.log.len() {
            if let Some(bytes) = self.log.read(i)? {
                if let Some((covered, anchor)) = parse_anchor(&bytes) {
                    self.next_number = covered + 1;
                    self.last_block_hash = anchor;
                    self.last_checkpoint = self.last_checkpoint.max(covered);
                } else if let Ok(block) = from_bytes::<Block>(&bytes) {
                    self.next_number = block.header.number + 1;
                    self.last_block_hash = block.header.hash();
                    if matches!(block.body, BlockBody::Reconfiguration { .. }) {
                        self.last_reconfig = block.header.number;
                    }
                    self.last_checkpoint = block.header.last_checkpoint;
                }
            }
        }
        Ok(())
    }

    /// The hash that a block chaining onto block `number` must carry: the
    /// block's header hash, or — when record `number` is a checkpoint
    /// anchor from an earlier fast-forward — the anchored hash itself.
    pub fn chain_hash_at(&self, number: u64) -> Option<Hash> {
        if number == 0 {
            return Some(self.genesis.hash());
        }
        if number >= self.next_number {
            return None;
        }
        if let Some(block) = self.block(number).ok().flatten() {
            return Some(block.header.hash());
        }
        match self.log.read(number) {
            Ok(Some(bytes)) => parse_anchor(&bytes)
                .filter(|(covered, _)| *covered == number)
                .map(|(_, anchor)| anchor),
            _ => None,
        }
    }

    /// Fast-forwards an (almost) empty chain through a checkpoint received
    /// via state transfer: blocks 1..=`covered` are summarized by a snapshot
    /// the caller installed into the application, and `anchor` is the hash
    /// of block `covered`, so block `covered + 1` can chain onto it.
    ///
    /// The log is padded so record index == block number stays true for the
    /// suffix; record `covered` holds an anchor marker that survives
    /// restarts (reload re-derives the tail from it even if the whole
    /// suffix was lost).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn install_checkpoint_anchor(&mut self, covered: u64, anchor: Hash) -> io::Result<()> {
        if covered < self.next_number {
            return Ok(()); // we already have (at least) that prefix
        }
        while self.log.len() < covered {
            self.log.append(&[])?;
        }
        if self.log.len() == covered {
            self.log.append(&anchor_record(covered, &anchor))?;
        }
        self.next_number = covered + 1;
        self.last_block_hash = anchor;
        self.last_checkpoint = self.last_checkpoint.max(covered);
        Ok(())
    }

    /// Consumes the ledger, returning the underlying log (crash simulation
    /// in tests: reopen the log with [`Ledger::open`]).
    pub fn into_log(self) -> L {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{persist_sign_payload, BlockHeader};
    use crate::view_keys::KeyStore;
    use smartchain_consensus::proof::DecisionProof;
    use smartchain_crypto::keys::{Backend, SecretKey};
    use smartchain_smr::types::Request;
    use smartchain_storage::mem::MemLog;

    fn genesis() -> Genesis {
        let stores: Vec<KeyStore> = (0..4)
            .map(|i| {
                KeyStore::new(
                    SecretKey::from_seed(Backend::Sim, &[i as u8 + 130; 32]),
                    Backend::Sim,
                )
            })
            .collect();
        Genesis {
            view: crate::block::ViewInfo {
                id: 0,
                members: stores.iter().map(|s| s.certified_key_for(0)).collect(),
            },
            checkpoint_period: 10,
            app_data: Vec::new(),
        }
    }

    fn tx_body(consensus_id: u64) -> BlockBody {
        BlockBody::Transactions {
            consensus_id,
            requests: vec![Request {
                client: 1,
                seq: consensus_id,
                payload: vec![consensus_id as u8],
                signature: None,
            }],
            proof: DecisionProof {
                instance: consensus_id,
                epoch: 0,
                value_hash: [0u8; 32],
                accepts: Vec::new(),
            },
            results: vec![vec![1]],
        }
    }

    #[test]
    fn fresh_ledger_has_genesis() {
        let ledger = Ledger::open(MemLog::new(), genesis()).unwrap();
        assert_eq!(ledger.height(), 0);
        assert_eq!(ledger.next_number(), 1);
        assert_eq!(ledger.last_block_hash(), ledger.genesis().hash());
    }

    #[test]
    fn append_chains_blocks() {
        let mut ledger = Ledger::open(MemLog::new(), genesis()).unwrap();
        for i in 1..=5u64 {
            let block = ledger.build_next(tx_body(i), [0u8; 32]);
            ledger.append(&block).unwrap();
        }
        assert_eq!(ledger.height(), 5);
        let b3 = ledger.block(3).unwrap().unwrap();
        let b4 = ledger.block(4).unwrap().unwrap();
        assert_eq!(b4.header.hash_last_block, b3.header.hash());
    }

    #[test]
    fn append_rejects_wrong_parent() {
        let mut ledger = Ledger::open(MemLog::new(), genesis()).unwrap();
        let block = ledger.build_next(tx_body(1), [0u8; 32]);
        ledger.append(&block).unwrap();
        // Re-appending the same block must fail (wrong number + parent).
        assert!(ledger.append(&block).is_err());
        // A block with a forged parent hash must fail.
        let mut forged = ledger.build_next(tx_body(2), [0u8; 32]);
        forged.header.hash_last_block = [9u8; 32];
        forged.header.number = ledger.next_number();
        assert!(ledger.append(&forged).is_err());
    }

    #[test]
    fn recovery_rebuilds_tail_state() {
        let g = genesis();
        let mut ledger = Ledger::open(MemLog::new(), g.clone()).unwrap();
        for i in 1..=3u64 {
            let block = ledger.build_next(tx_body(i), [0u8; 32]);
            ledger.append(&block).unwrap();
        }
        ledger.sync().unwrap();
        let log = ledger.into_log();
        let recovered = Ledger::open(log, g).unwrap();
        assert_eq!(recovered.height(), 3);
        let b3 = recovered.block(3).unwrap().unwrap();
        assert_eq!(recovered.last_block_hash(), b3.header.hash());
        assert_eq!(recovered.next_number(), 4);
    }

    #[test]
    fn genesis_mismatch_rejected() {
        let g1 = genesis();
        let mut g2 = g1.clone();
        g2.checkpoint_period = 99;
        let mut log = MemLog::new();
        log.append(&to_bytes(&g1)).unwrap();
        assert!(Ledger::open(log, g2).is_err());
    }

    #[test]
    fn certificates_attach_to_blocks() {
        let mut ledger = Ledger::open(MemLog::new(), genesis()).unwrap();
        let block = ledger.build_next(tx_body(1), [0u8; 32]);
        ledger.append(&block).unwrap();
        let header: BlockHeader = block.header;
        let ks = KeyStore::new(
            SecretKey::from_seed(Backend::Sim, &[130u8; 32]),
            Backend::Sim,
        );
        let sig = ks
            .consensus()
            .sign(&persist_sign_payload(1, &header.hash()));
        ledger.set_certificate(
            1,
            Certificate {
                signatures: vec![(0, sig)],
            },
        );
        let read_back = ledger.block(1).unwrap().unwrap();
        assert_eq!(read_back.certificate.signatures.len(), 1);
        // A crash reload drops the certificate with the rest of the
        // volatile tail state.
        ledger.reload().unwrap();
        let reloaded = ledger.block(1).unwrap().unwrap();
        assert!(reloaded.certificate.signatures.is_empty());
    }

    #[test]
    fn blocks_from_returns_suffix() {
        let mut ledger = Ledger::open(MemLog::new(), genesis()).unwrap();
        for i in 1..=6u64 {
            let block = ledger.build_next(tx_body(i), [0u8; 32]);
            ledger.append(&block).unwrap();
        }
        let suffix = ledger.blocks_from(4).unwrap();
        assert_eq!(suffix.len(), 3);
        assert_eq!(suffix[0].header.number, 4);
        assert_eq!(suffix[2].header.number, 6);
    }
}
