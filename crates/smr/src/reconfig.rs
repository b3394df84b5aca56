//! The *centralized* reconfiguration baseline: BFT-SMaRt's trusted View
//! Manager (paper §II-C3).
//!
//! A distinguished client holding an administrative key issues signed
//! reconfiguration requests through the ordering protocol. The request is
//! never delivered to the application — replicas intercept it and update the
//! view. This is exactly the design the paper argues is *unsuitable* for
//! blockchains ("relies on a centralized third party with administrative
//! privileges", Observation 3); it exists here as the comparison point for
//! SmartChain's decentralized protocol in `smartchain-core`.

use crate::types::Request;
use smartchain_codec::{Decode, DecodeError, Encode};
use smartchain_crypto::keys::{PublicKey, SecretKey, Signature};

/// A View Manager's signed instruction to change the replica set.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewChangeCommand {
    /// The view this command creates (current view id + 1).
    pub new_view_id: u64,
    /// Replica consensus public keys of the new membership, in id order.
    pub members: Vec<PublicKey>,
    /// Signature by the View Manager's administrative key.
    pub signature: Signature,
}

/// Canonical bytes the View Manager signs.
pub fn command_payload(new_view_id: u64, members: &[PublicKey]) -> Vec<u8> {
    let mut out = Vec::new();
    b"sc-viewmgr".as_slice().encode(&mut out);
    new_view_id.encode(&mut out);
    members.encode(&mut out);
    out
}

impl ViewChangeCommand {
    /// Signs a new command with the manager's key.
    pub fn new(manager: &SecretKey, new_view_id: u64, members: Vec<PublicKey>) -> Self {
        let signature = manager.sign(&command_payload(new_view_id, &members));
        ViewChangeCommand {
            new_view_id,
            members,
            signature,
        }
    }

    /// Verifies the administrative signature.
    pub fn verify(&self, manager: &PublicKey) -> bool {
        manager.verify(
            &command_payload(self.new_view_id, &self.members),
            &self.signature,
        )
    }

    /// Wraps the command as an ordered request payload (marker byte 0xVM).
    pub fn to_request_payload(&self) -> Vec<u8> {
        let mut out = vec![VIEW_MANAGER_MARKER];
        self.encode(&mut out);
        out
    }

    /// Recognizes and parses a View Manager payload.
    pub fn from_request(req: &Request) -> Option<ViewChangeCommand> {
        let payload = req.payload.as_slice();
        if payload.first() != Some(&VIEW_MANAGER_MARKER) {
            return None;
        }
        let mut input = &payload[1..];
        ViewChangeCommand::decode(&mut input).ok()
    }
}

/// Marker byte distinguishing View Manager commands from app payloads.
pub const VIEW_MANAGER_MARKER: u8 = 0xAD;

impl Encode for ViewChangeCommand {
    fn encode(&self, out: &mut Vec<u8>) {
        self.new_view_id.encode(out);
        self.members.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for ViewChangeCommand {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let new_view_id = u64::decode(input)?;
        let members = Vec::<PublicKey>::decode(input)?;
        if members.len() > 1024 {
            return Err(DecodeError::BadLength(members.len() as u64));
        }
        Ok(ViewChangeCommand {
            new_view_id,
            members,
            signature: Signature::decode(input)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_crypto::keys::Backend;

    fn keys(n: usize) -> Vec<PublicKey> {
        (0..n)
            .map(|i| SecretKey::from_seed(Backend::Sim, &[i as u8 + 160; 32]).public_key())
            .collect()
    }

    #[test]
    fn signed_command_verifies() {
        let manager = SecretKey::from_seed(Backend::Sim, &[170u8; 32]);
        let cmd = ViewChangeCommand::new(&manager, 1, keys(5));
        assert!(cmd.verify(&manager.public_key()));
    }

    #[test]
    fn forged_command_rejected() {
        let manager = SecretKey::from_seed(Backend::Sim, &[170u8; 32]);
        let impostor = SecretKey::from_seed(Backend::Sim, &[171u8; 32]);
        let cmd = ViewChangeCommand::new(&impostor, 1, keys(5));
        assert!(
            !cmd.verify(&manager.public_key()),
            "impostor command must fail"
        );
        // Tampering with the member list also breaks the signature.
        let mut cmd = ViewChangeCommand::new(&manager, 1, keys(5));
        cmd.members.pop();
        assert!(!cmd.verify(&manager.public_key()));
    }

    #[test]
    fn request_payload_roundtrip() {
        let manager = SecretKey::from_seed(Backend::Sim, &[172u8; 32]);
        let cmd = ViewChangeCommand::new(&manager, 3, keys(4));
        let req = Request {
            client: 1,
            seq: 0,
            payload: cmd.to_request_payload(),
            signature: None,
        };
        let parsed = ViewChangeCommand::from_request(&req).expect("parses");
        assert_eq!(parsed, cmd);
        assert!(parsed.verify(&manager.public_key()));
    }

    #[test]
    fn app_payloads_not_mistaken_for_commands() {
        let req = Request {
            client: 1,
            seq: 0,
            payload: vec![0u8, 1, 2],
            signature: None,
        };
        assert!(ViewChangeCommand::from_request(&req).is_none());
    }
}
