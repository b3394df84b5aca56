//! Wire-form pins: the canonical bytes of every record and message type.
//!
//! Blocks are hashed, signed and persisted, so every replica must produce
//! the same bytes for the same value, release after release. Each check
//! below encodes one seeded instance of a wire type (every variant of each
//! message enum) and asserts three things: the SHA-256 of the encoding
//! equals its pinned hex string, `encoded_len` equals the length of the
//! materialized encoding, and decoding the bytes gives back the value
//! (same `Debug` form, same bytes when re-encoded). A changed pin is a
//! changed wire format: old logs, snapshots and peers stop decoding.

use smartchain::codec::{from_bytes, to_bytes, Decode, Encode};
use smartchain::coin::tx::{CoinTx, Output, RejectReason, TxResult};
use smartchain::consensus::messages::ConsensusMsg;
use smartchain::consensus::proof::{DecisionProof, WriteCertificate};
use smartchain::consensus::synchronizer::{LockedReport, StopData, SyncMsg};
use smartchain::core::block::{
    Block, BlockBody, BlockHeader, Certificate, Genesis, ReconfigOp, ReconfigTx, ReconfigVote,
    ViewInfo,
};
use smartchain::core::messages::ChainMsg;
use smartchain::core::pipeline::checkpoint::SnapshotCommit;
use smartchain::core::view_keys::CertifiedKey;
use smartchain::crypto::keys::{Backend, PublicKey, SecretKey, Signature};
use smartchain::crypto::{hex, sha256, Hash, ValueBytes};
use smartchain::merkle;
use smartchain::sim::rng::SimRng;
use smartchain::smr::durability::{
    CheckpointCert, LoggedBatch, ReadProof, ShippedSnapshot, SnapshotMeta,
};
use smartchain::smr::ordering::SmrMsg;
use smartchain::smr::types::{decode_batch, encode_batch, Reply, Request};
use std::fmt::Debug;
use std::sync::Arc;

/// Seeded source of the pinned instances' contents.
struct Gen(SimRng);

impl Gen {
    fn new() -> Gen {
        Gen(SimRng::seed_from_u64(0x5c_41))
    }

    fn u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn u32(&mut self) -> u32 {
        self.0.next_u64() as u32
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        self.0.gen_bytes(len)
    }

    fn hash(&mut self) -> Hash {
        self.bytes(32).try_into().expect("32 bytes")
    }

    fn secret(&mut self) -> SecretKey {
        SecretKey::from_seed(Backend::Sim, &self.hash())
    }

    fn key(&mut self) -> PublicKey {
        self.secret().public_key()
    }

    fn sig(&mut self) -> Signature {
        let msg = self.bytes(16);
        self.secret().sign(&msg)
    }

    fn signers(&mut self, n: usize) -> Vec<(usize, Signature)> {
        (0..n).map(|i| (i, self.sig())).collect()
    }

    fn value(&mut self, len: usize) -> ValueBytes {
        ValueBytes::new(self.bytes(len))
    }

    fn certified_key(&mut self) -> CertifiedKey {
        CertifiedKey {
            permanent: self.key(),
            consensus: self.key(),
            cert: self.sig(),
        }
    }

    fn decision_proof(&mut self) -> DecisionProof {
        DecisionProof {
            instance: self.u64(),
            epoch: self.u32(),
            value_hash: self.hash(),
            accepts: self.signers(3),
        }
    }

    fn write_cert(&mut self) -> WriteCertificate {
        WriteCertificate {
            instance: self.u64(),
            epoch: self.u32(),
            value_hash: self.hash(),
            writes: self.signers(3),
        }
    }

    fn locked_report(&mut self) -> LockedReport {
        LockedReport {
            value: self.value(20),
            cert: self.write_cert(),
        }
    }

    fn stop_data(&mut self) -> StopData {
        StopData {
            last_decided: self.u64(),
            locked: vec![self.locked_report(), self.locked_report()],
        }
    }

    fn request(&mut self, signed: bool) -> Request {
        let signature = signed.then(|| (self.key(), self.sig()));
        Request {
            client: self.u64(),
            seq: self.u64(),
            payload: self.bytes(24),
            signature,
        }
    }

    fn reply(&mut self) -> Reply {
        Reply {
            client: self.u64(),
            seq: self.u64(),
            result: self.bytes(12),
            replica: 2,
        }
    }

    fn checkpoint_cert(&mut self) -> CheckpointCert {
        CheckpointCert {
            covered: self.u64(),
            state_root: self.hash(),
            tip: self.hash(),
            signatures: self.signers(3),
        }
    }

    fn snapshot_meta(&mut self) -> SnapshotMeta {
        SnapshotMeta {
            tip: self.hash(),
            state_root: self.hash(),
            replies: vec![(1, self.u64(), self.bytes(5)), (4, self.u64(), Vec::new())],
        }
    }

    fn merkle_proof(&mut self) -> merkle::Proof {
        let leaves: Vec<Vec<u8>> = (0..5).map(|_| self.bytes(8)).collect();
        merkle::prove(&leaves, 2)
    }

    fn range_proof(&mut self) -> merkle::RangeProof {
        let leaves: Vec<Vec<u8>> = (0..9).map(|_| self.bytes(8)).collect();
        merkle::prove_range(&leaves, 2, 5)
    }

    fn header(&mut self) -> BlockHeader {
        BlockHeader {
            number: self.u64(),
            last_reconfig: self.u64(),
            last_checkpoint: self.u64(),
            hash_transactions: self.hash(),
            hash_results: self.hash(),
            hash_last_block: self.hash(),
        }
    }

    fn view_info(&mut self) -> ViewInfo {
        ViewInfo {
            id: self.u64(),
            members: (0..4).map(|_| self.certified_key()).collect(),
        }
    }

    fn reconfig_vote(&mut self) -> ReconfigVote {
        ReconfigVote {
            voter: 1,
            new_key: self.certified_key(),
            signature: self.sig(),
        }
    }

    fn reconfig_ops(&mut self) -> [ReconfigOp; 3] {
        [
            ReconfigOp::Join {
                joiner: self.certified_key(),
            },
            ReconfigOp::Leave { leaver: self.key() },
            ReconfigOp::Exclude { target: self.key() },
        ]
    }

    fn reconfig_tx(&mut self) -> ReconfigTx {
        let [op, _, _] = self.reconfig_ops();
        ReconfigTx {
            new_view_id: self.u64(),
            op,
            votes: vec![self.reconfig_vote(), self.reconfig_vote()],
        }
    }

    fn bodies(&mut self) -> [BlockBody; 2] {
        [
            BlockBody::Transactions {
                consensus_id: self.u64(),
                requests: vec![self.request(true), self.request(false)],
                proof: self.decision_proof(),
                results: vec![self.bytes(3), Vec::new(), self.bytes(7)],
            },
            BlockBody::Reconfiguration {
                consensus_id: self.u64(),
                tx: self.reconfig_tx(),
                proof: self.decision_proof(),
                new_view: self.view_info(),
            },
        ]
    }

    fn certificate(&mut self) -> Certificate {
        Certificate {
            signatures: self.signers(3),
        }
    }

    fn block(&mut self) -> Block {
        let [body, _] = self.bodies();
        Block {
            header: self.header(),
            body,
            certificate: self.certificate(),
        }
    }

    fn snapshot_commit(&mut self) -> SnapshotCommit {
        SnapshotCommit {
            header: self.header(),
            results_root: self.hash(),
            state_root: self.hash(),
        }
    }

    fn output(&mut self) -> Output {
        Output {
            owner: self.key(),
            value: self.u64(),
        }
    }
}

/// Collects pin mismatches so one run reports every changed wire form.
#[derive(Default)]
struct Forms {
    mismatched: Vec<String>,
}

impl Forms {
    fn check<T: Encode + Decode + Debug>(&mut self, name: &str, value: &T, pin: &str) {
        let bytes = to_bytes(value);
        assert_eq!(value.encoded_len(), bytes.len(), "{name}: encoded_len");
        let back: T = from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: decode: {e}"));
        assert_eq!(
            format!("{back:?}"),
            format!("{value:?}"),
            "{name}: round trip"
        );
        assert_eq!(to_bytes(&back), bytes, "{name}: re-encoding");
        self.pin(name, &bytes, pin);
    }

    fn pin(&mut self, name: &str, bytes: &[u8], pin: &str) {
        let got = hex(&sha256::digest(bytes));
        if got != pin {
            self.mismatched
                .push(format!("{name}: pinned {pin}, encodes to {got}"));
        }
    }

    fn finish(self) {
        assert!(
            self.mismatched.is_empty(),
            "wire forms changed:\n{}",
            self.mismatched.join("\n")
        );
    }
}

#[test]
fn consensus_wire_forms() {
    let mut g = Gen::new();
    let mut forms = Forms::default();
    forms.check(
        "DecisionProof",
        &g.decision_proof(),
        "695dad99cee0c9ae2d800a5d2db9be4f0b35c35e5ad81e6348595a6aebf45b2e",
    );
    forms.check(
        "WriteCertificate",
        &g.write_cert(),
        "3dc62cb2c315f8fd3d88952b7a8bdae504406773546b93d63bf1c66b9052b33f",
    );
    forms.check(
        "LockedReport",
        &g.locked_report(),
        "d2efbb21bf7fa5b4760e35434079c940a1578f9a88f455d0fc11f41fff8b9804",
    );
    forms.check(
        "StopData",
        &g.stop_data(),
        "af3f4252abe5b732de6ade08eb56ac23c8924ccb2997bb9b6a514a3d853194b7",
    );
    let sync = [
        SyncMsg::Stop { regency: g.u32() },
        SyncMsg::StopData {
            regency: g.u32(),
            data: g.stop_data(),
        },
        SyncMsg::Sync {
            regency: g.u32(),
            reports: vec![(0, g.stop_data()), (3, g.stop_data())],
            adopted: vec![(g.u64(), g.value(9)), (g.u64(), g.value(0))],
        },
    ];
    let sync_pins = [
        "9fe5bfc446e1a67b3e88c0aa98cff6a0824bf45c17dc58db89313b9d90c4eeb9",
        "c33890c3cfe429ec796c949a6043104e601ddd8b4df95d17d255089fcf783a64",
        "88dd6fd7df51ca2d65b4dde9e17a5d1605642c2a970e98606daa18c7e8a20e07",
    ];
    for (i, (msg, pin)) in sync.iter().zip(sync_pins).enumerate() {
        forms.check(&format!("SyncMsg[{i}]"), msg, pin);
    }
    let consensus = [
        ConsensusMsg::Propose {
            instance: g.u64(),
            epoch: g.u32(),
            value: g.value(40),
        },
        ConsensusMsg::Write {
            instance: g.u64(),
            epoch: g.u32(),
            value_hash: g.hash(),
            signature: g.sig(),
        },
        ConsensusMsg::Accept {
            instance: g.u64(),
            epoch: g.u32(),
            value_hash: g.hash(),
            signature: g.sig(),
        },
        ConsensusMsg::FetchValue { instance: g.u64() },
        ConsensusMsg::ValueReply {
            instance: g.u64(),
            epoch: g.u32(),
            value: g.value(17),
        },
    ];
    let consensus_pins = [
        "ad8e0e1caa7fd3902b882856c7338962c82043ce169cf2310041033c49bd1922",
        "7ce747c41afdf95cca5913427eb1332c4ad343b8be03d49e9c785433c79413ff",
        "672d1560c0444bfc4880ad8d464241585077d0ac377af3b5ad21c5dfbf317592",
        "9feefba2927501d33bc4067125adb508e9339909de08723561cf573bd6394fd2",
        "32874cb7f2f944e614e06555949aab5b800edc8cb97de80c4c347b4f29cc31a0",
    ];
    for (i, (msg, pin)) in consensus.iter().zip(consensus_pins).enumerate() {
        forms.check(&format!("ConsensusMsg[{i}]"), msg, pin);
    }
    forms.finish();
}

#[test]
fn smr_wire_forms() {
    let mut g = Gen::new();
    let mut forms = Forms::default();
    let requests = [g.request(true), g.request(false)];
    forms.check(
        "Request, signed",
        &requests[0],
        "c29f3451508b1dc640a354e77d67791918ad75306f6f48cb1cb1dcf1ce622cb4",
    );
    forms.check(
        "Request, unsigned",
        &requests[1],
        "cb74f4b71f434b63a0919486a63504d5c509698423b5dbfc7fe6eeb8df1264fa",
    );
    let batch = encode_batch(&requests);
    assert_eq!(decode_batch(&batch).expect("batch decodes"), requests);
    forms.pin(
        "encode_batch",
        &batch,
        "8b70298d4611fb529229214cf687883dfa51d8889847f770a754dadc66c8edd9",
    );
    forms.check(
        "Reply",
        &g.reply(),
        "cccf3180bfd559d5530cddc2b15c2faf5d2a802dc1d3bf2de2162ae75648522e",
    );
    let logged = LoggedBatch {
        prev: g.hash(),
        value: ValueBytes::new(batch),
        proof: g.decision_proof(),
    };
    forms.check(
        "LoggedBatch",
        &logged,
        "d5e09e9f4874d7c006c0d6f3c751247db5c0283b4594481f74b890acdde6dc1c",
    );
    forms.check(
        "SnapshotMeta",
        &g.snapshot_meta(),
        "8401954e96f93eb237d0ac49b8556e8ca74d240d99a8772e2a37cadcaa302deb",
    );
    forms.check(
        "CheckpointCert",
        &g.checkpoint_cert(),
        "463fa0989270a8160bcfcc513a6001a2a938f10ad94a45cabed40b01dc285bc0",
    );
    let read = ReadProof {
        covered: g.u64(),
        chunk_index: 2,
        chunk: g.bytes(33),
        proof: g.merkle_proof(),
        cert: g.checkpoint_cert(),
    };
    forms.check(
        "ReadProof",
        &read,
        "70b75c6a6cf5666d129b7268bcb15c9b57b7a5068c36109fade0b5c74eb82f15",
    );
    let shipped = ShippedSnapshot {
        state: g.bytes(70),
        meta: g.snapshot_meta(),
    };
    forms.check(
        "ShippedSnapshot",
        &shipped,
        "aede949e869afd3692ea9dfdcd16afa3078d260b32d22281273c845a0fcdc188",
    );
    let msgs = [
        SmrMsg::Request(g.request(true)),
        SmrMsg::Consensus(ConsensusMsg::FetchValue { instance: g.u64() }),
        SmrMsg::Sync(SyncMsg::Stop { regency: g.u32() }),
        SmrMsg::Reply(g.reply()),
        SmrMsg::StateReq {
            from_batch: g.u64(),
        },
        SmrMsg::StateRep {
            covered: g.u64(),
            snapshot: Some(g.bytes(21)),
            first_batch: g.u64(),
            batches: vec![g.bytes(11), g.bytes(0)],
            regency: g.u32(),
            cert: Some(g.checkpoint_cert()),
        },
        SmrMsg::CkptShare {
            replica: 3,
            covered: g.u64(),
            state_root: g.hash(),
            tip: g.hash(),
            signature: g.sig(),
        },
        SmrMsg::InstanceFetch {
            instance: g.u64(),
            have: true,
        },
        SmrMsg::InstanceRep {
            instance: g.u64(),
            decided: Some((g.value(13), Arc::new(g.decision_proof()))),
            msgs: vec![ConsensusMsg::Propose {
                instance: g.u64(),
                epoch: g.u32(),
                value: g.value(6),
            }],
        },
    ];
    let msg_pins = [
        "42b3ed01d614d0b1c0e62aec66b90f386e2b95a7c58b9c9a81303ddcebe57475",
        "575d9a368d7c45ba97a4ac84860991f5754a5d1a0e3dafe16beac1dd643d62c7",
        "d8385a943a1e70d0ef314d0e9280eac2d88f53033ba39f041c2397ee8a1cb884",
        "4e6791927f0b8e76ea5dab9e7a9355671001a31bb52d1ec72ee69a0ed9fc6c8a",
        "ee170fd866b89aca0e2530d4da9c79601a8430a3794d11a063374b68f94c25fa",
        "c8803bf3db215f379cdc6fced84e9bf33662f8a84d0e0942f345ac9a87c18bb2",
        "4fa9e74053cef75e8f025beeb9ca30057fb6cf836a67ab7bf52efdacb5127e5c",
        "0c282616797f6b4779c4a181c26ea0e78c51ef09bc0d705e7f4fd6fab1237716",
        "b20dee0951a49420e7287bb9e18ca8d563d2c70b8377aa9b598888a6e6b6148c",
    ];
    for (i, (msg, pin)) in msgs.iter().zip(msg_pins).enumerate() {
        forms.check(&format!("SmrMsg[{i}]"), msg, pin);
    }
    forms.finish();
}

#[test]
fn core_wire_forms() {
    let mut g = Gen::new();
    let mut forms = Forms::default();
    forms.check(
        "CertifiedKey",
        &g.certified_key(),
        "87c5210e11a24bbe4df68d348c1a92edca4fa15db3d1f0c7bdeded73b26d9ae2",
    );
    forms.check(
        "ViewInfo",
        &g.view_info(),
        "2d242220302cebe0b51a8e845544a8301b2a457619cc68b8d1de0a4283e0e3f5",
    );
    let genesis = Genesis {
        view: g.view_info(),
        checkpoint_period: g.u64(),
        app_data: g.bytes(19),
    };
    forms.check(
        "Genesis",
        &genesis,
        "82e9b8ba2d34e0026a758a618f606c79d7476f6849775c332c014c864925b2be",
    );
    forms.check(
        "BlockHeader",
        &g.header(),
        "ba0210d4977c5fae7effa43892f662e45f176639d39de70ea9da7e26e4412374",
    );
    let op_pins = [
        "a6887ced6f900fd3980627d0fc240b5e3ed83352db5d44daec56b7d2ebb1770c",
        "3aec67a4f14ea917d68e7261eadab94b2d338fc38651b23d8633db472b4728ef",
        "d16ee1407684fa150de7676949cb1192e69813cbdbf3343d34a3688e342b1cd5",
    ];
    for (i, (op, pin)) in g.reconfig_ops().iter().zip(op_pins).enumerate() {
        forms.check(&format!("ReconfigOp[{i}]"), op, pin);
    }
    forms.check(
        "ReconfigVote",
        &g.reconfig_vote(),
        "a12c6dee7b71aa105b65523641f370b9464a54c11f5eb20dd6d9884aecff5b50",
    );
    forms.check(
        "ReconfigTx",
        &g.reconfig_tx(),
        "66b1daf4dcce0bc9611d453d4f5be456938ae9cd20de5a931f89c05934835031",
    );
    let body_pins = [
        "cd62ad53e07dfbcb6452d00fb7b57f4321f45d161a93a4fd8aba569ee5fffd4e",
        "ad02ca3ee89280875eb2377b44ddf4403705fed34b0a0990e10e109efa5c4cdd",
    ];
    for (i, (body, pin)) in g.bodies().iter().zip(body_pins).enumerate() {
        forms.check(&format!("BlockBody[{i}]"), body, pin);
    }
    forms.check(
        "Certificate",
        &g.certificate(),
        "9a6c87e602f994ecdc4cf4561b6c704cf6d7a37e4a23b7b3b0337e23f72a018d",
    );
    forms.check(
        "Block",
        &g.block(),
        "69f943837aaf27894b468e1c73f3a70093000418732e3da64d212f9eae20bee1",
    );
    forms.check(
        "SnapshotCommit",
        &g.snapshot_commit(),
        "4cc103d97b426b6437e18431e4eb3cea75524c257b269b77e203a8d492d464a9",
    );
    let [join, _, _] = g.reconfig_ops();
    let msgs = [
        ChainMsg::Smr(SmrMsg::StateReq {
            from_batch: g.u64(),
        }),
        ChainMsg::Persist {
            block: g.u64(),
            header_hash: g.hash(),
            signature: g.sig(),
        },
        ChainMsg::StateReq {
            from_block: g.u64(),
        },
        ChainMsg::StateRep {
            snapshot: Some((g.u64(), g.bytes(30))),
            commit: Some(g.snapshot_commit()),
            snapshot_anchor: Some(g.hash()),
            snapshot_dedup: vec![(g.u64(), g.u64()), (g.u64(), g.u64())],
            blocks: vec![g.block()],
            modeled_size: g.u64(),
            full: true,
            digests: vec![(g.u64(), g.hash()), (g.u64(), g.hash())],
        },
        ChainMsg::JoinAsk {
            joiner: g.certified_key(),
        },
        ChainMsg::JoinVote {
            vote: g.reconfig_vote(),
            op: join,
            new_view_id: g.u64(),
            current_view: g.view_info(),
        },
        ChainMsg::Welcome {
            view: g.view_info(),
        },
    ];
    let msg_pins = [
        "395cefcc9c940cd2554c252a9e7c90646b9b7fad9135644fde995085db95c21a",
        "eab64693349fb56185ff3b57bd26b817456baba6fa10cc31a5378011581d5c22",
        "31a0c4f5455a26bc1cadc04ce52901ec81fc559151f8b5bf8d9517470bbb2631",
        "cc189b0839a7e1483a9b106d29a9c89fa692f07f85dcf5a52b8c6c8986fb2503",
        "0996745e6d1f483e7bf7ed0fa2c7b7b82cc154d14bd14579d3b11950e3b408b9",
        "0cbc27537a90b8021bc50b994ca12d67a8af11345e55042850db9356407247ec",
        "53867bd4dd504b3859f6b6959ed70b59347057523edb33464bc8f262460882c0",
    ];
    for (i, (msg, pin)) in msgs.iter().zip(msg_pins).enumerate() {
        forms.check(&format!("ChainMsg[{i}]"), msg, pin);
    }
    forms.finish();
}

#[test]
fn merkle_and_coin_wire_forms() {
    let mut g = Gen::new();
    let mut forms = Forms::default();
    forms.check(
        "merkle::Proof",
        &g.merkle_proof(),
        "b1a57983d72bee3995aa50745e959f4b31d1936542faf9afc9ef71ebeebbfddc",
    );
    forms.check(
        "merkle::RangeProof",
        &g.range_proof(),
        "0ff2f3bb8e46907fba83472e765c605b0819f01d70e56e2b9b16c46dea469ca0",
    );
    forms.check(
        "Output",
        &g.output(),
        "e7e4480b3324ce636c403fad0e95b64d5b8d1939386f348ad61172ce664f50ba",
    );
    let txs = [
        CoinTx::Mint {
            outputs: vec![g.output(), g.output()],
        },
        CoinTx::Spend {
            inputs: vec![g.hash(), g.hash()],
            outputs: vec![g.output()],
        },
    ];
    let tx_pins = [
        "947be56bbd6a0a69b1f758c3dd4d3fce6deda17cca8010aeff8174664c9bd1a7",
        "deb93678b8e51278ed14b16c771307277f9c7ab77a08108eab20dc71a77a3c56",
    ];
    for (i, (tx, pin)) in txs.iter().zip(tx_pins).enumerate() {
        forms.check(&format!("CoinTx[{i}]"), tx, pin);
    }
    forms.check(
        "TxResult::Created",
        &TxResult::Created {
            coins: vec![g.hash(), g.hash(), g.hash()],
        },
        "448c13583febc01910608dba7505412783bd5a630b1af088fb40812f7356c657",
    );
    let reasons = [
        (
            RejectReason::NotAMinter,
            "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        ),
        (
            RejectReason::UnknownInput,
            "9dcf97a184f32623d11a73124ceb99a5709b083721e878a16d78f596718ba7b2",
        ),
        (
            RejectReason::NotOwner,
            "a12871fee210fb8619291eaea194581cbd2531e4b23759d225f6806923f63222",
        ),
        (
            RejectReason::ValueMismatch,
            "c79b932e1e1da3c0e098e5ad2c422937eb904a76cf61d83975a74a68fbb04b99",
        ),
        (
            RejectReason::Unsigned,
            "a8d5dd63fba471ebcb1f3e8f7c1e1879b7152a6e7298a91ce119a63400ade7c5",
        ),
        (
            RejectReason::Malformed,
            "bc5959f43bc6e47175374b6716e53c9a7d72c59424c821336995bad760d9aeb3",
        ),
    ];
    for (reason, pin) in reasons {
        let name = format!("TxResult::Rejected {{ {reason:?} }}");
        forms.check(&name, &TxResult::Rejected { reason }, pin);
    }
    forms.finish();
}
