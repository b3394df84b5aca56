//! Requests, replies and batches — the SMR wire vocabulary.

use smartchain_codec::{codec_struct, signing_bytes, DecodeError, Encode};
use smartchain_consensus::ReplicaId;
use smartchain_crypto::keys::{PublicKey, Signature};

/// A client operation submitted for total ordering.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Logical client identifier.
    pub client: u64,
    /// Client-local sequence number (dedup/replay protection).
    pub seq: u64,
    /// Application payload (for SMaRtCoin: an encoded, signed transaction).
    pub payload: Vec<u8>,
    /// Client signature over [`Request::sign_payload`], when the deployment
    /// uses signatures.
    pub signature: Option<(PublicKey, Signature)>,
}

impl Request {
    /// Canonical bytes covered by the client signature.
    pub fn sign_payload(client: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        signing_bytes(b"sc-request", (client, seq, payload))
    }

    /// Verifies the embedded signature; requests without one verify
    /// trivially (signature-free deployments).
    pub fn verify_signature(&self) -> bool {
        match &self.signature {
            None => true,
            Some((key, sig)) => key.verify(
                &Request::sign_payload(self.client, self.seq, &self.payload),
                sig,
            ),
        }
    }

    /// Unique request identity.
    pub fn id(&self) -> (u64, u64) {
        (self.client, self.seq)
    }

    /// Wire size in bytes — the canonical encoding's exact length (requests
    /// travel nested inside framed messages, so no framing is added here).
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

codec_struct!(Request {
    client,
    seq,
    payload,
    signature
});

/// A replica's reply to one request.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The client the reply is addressed to.
    pub client: u64,
    /// Sequence number of the replied request.
    pub seq: u64,
    /// Application result bytes.
    pub result: Vec<u8>,
    /// Which replica produced this reply.
    pub replica: ReplicaId,
}

impl Reply {
    /// Wire size in bytes — the canonical encoding's exact length.
    pub fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

codec_struct!(Reply {
    client,
    seq,
    result,
    replica
});

/// Encodes a batch of requests into a consensus value.
pub fn encode_batch(requests: &[Request]) -> Vec<u8> {
    smartchain_codec::to_bytes(requests)
}

/// Decodes a consensus value back into requests.
///
/// # Errors
///
/// Returns a decode error when the value is not a well-formed batch.
pub fn decode_batch(value: &[u8]) -> Result<Vec<Request>, DecodeError> {
    smartchain_codec::from_bytes(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartchain_codec::Encode;
    use smartchain_crypto::keys::{Backend, SecretKey};

    fn signed_request(seed: u8, client: u64, seq: u64) -> Request {
        let sk = SecretKey::from_seed(Backend::Sim, &[seed; 32]);
        let payload = vec![seed; 50];
        let sig = sk.sign(&Request::sign_payload(client, seq, &payload));
        Request {
            client,
            seq,
            payload,
            signature: Some((sk.public_key(), sig)),
        }
    }

    #[test]
    fn request_roundtrip_and_verify() {
        let req = signed_request(1, 10, 3);
        assert!(req.verify_signature());
        let bytes = smartchain_codec::to_bytes(&req);
        let back: Request = smartchain_codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, req);
        assert!(back.verify_signature());
    }

    #[test]
    fn tampered_request_fails_verification() {
        let mut req = signed_request(1, 10, 3);
        req.payload[0] ^= 0xff;
        assert!(!req.verify_signature());
        let mut req2 = signed_request(1, 10, 3);
        req2.seq = 4;
        assert!(!req2.verify_signature());
    }

    #[test]
    fn unsigned_request_verifies_trivially() {
        let req = Request {
            client: 1,
            seq: 1,
            payload: vec![1],
            signature: None,
        };
        assert!(req.verify_signature());
    }

    #[test]
    fn batch_roundtrip() {
        let batch: Vec<Request> = (0..5).map(|i| signed_request(i as u8 + 1, i, 0)).collect();
        let value = encode_batch(&batch);
        assert_eq!(decode_batch(&value).unwrap(), batch);
    }

    #[test]
    fn encodings_are_allocated_once_at_their_exact_length() {
        let req = signed_request(1, 10, 3);
        let bytes = smartchain_codec::to_bytes(&req);
        assert_eq!(bytes.capacity(), bytes.len());
        let batch: Vec<Request> = (0..64).map(|i| signed_request(i as u8 + 1, i, 0)).collect();
        let value = encode_batch(&batch);
        assert_eq!(value.capacity(), value.len());
    }

    #[test]
    fn malformed_batch_rejected() {
        assert!(decode_batch(&[1, 2, 3]).is_err());
    }

    #[test]
    fn reply_roundtrip() {
        let reply = Reply {
            client: 3,
            seq: 9,
            result: vec![1, 2],
            replica: 2,
        };
        let bytes = smartchain_codec::to_bytes(&reply);
        assert_eq!(
            smartchain_codec::from_bytes::<Reply>(&bytes).unwrap(),
            reply
        );
    }

    #[test]
    fn len_matches_encoding() {
        let signed = signed_request(1, 10, 3);
        let unsigned = Request {
            client: 1,
            seq: 1,
            payload: vec![1, 2, 3],
            signature: None,
        };
        let reply = Reply {
            client: 3,
            seq: 9,
            result: vec![1, 2],
            replica: 2,
        };
        assert_eq!(
            signed.encoded_len(),
            smartchain_codec::to_bytes(&signed).len()
        );
        assert_eq!(
            unsigned.encoded_len(),
            smartchain_codec::to_bytes(&unsigned).len()
        );
        assert_eq!(
            reply.encoded_len(),
            smartchain_codec::to_bytes(&reply).len()
        );
    }

    #[test]
    fn wire_sizes_match_paper_scale() {
        // Paper §IV-A: SPEND requests ≈ 310 bytes with signature.
        let req = signed_request(1, 1, 1);
        // 50-byte payload + signature + ids: in the right ballpark (not a
        // strict equality — serialization differs from Java).
        assert!(req.wire_size() > 100 && req.wire_size() < 400);
    }
}
