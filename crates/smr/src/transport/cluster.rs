//! The deployment descriptor of a multi-process cluster (`cluster.toml`):
//! member addresses plus the cluster secret. Everything else a process needs
//! — pairwise link keys, deterministic per-replica consensus keys, the view
//! — derives from these two, so one small file bootstraps every replica and
//! client identically.
//!
//! The parser covers exactly the subset the descriptor uses (comments,
//! `key = value`, quoted strings, one-line string arrays); the workspace
//! builds without external crates, TOML libraries included.

use smartchain_crypto::hmac::derive_key;
use smartchain_crypto::keys::{Backend, SecretKey};
use smartchain_crypto::{hex, unhex};

/// A parsed `cluster.toml`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Listen/dial address of every replica, indexed by replica id.
    pub replicas: Vec<String>,
    /// The cluster secret (32 bytes, hex in the file). Pairwise link keys
    /// and per-replica consensus keys derive from it.
    pub secret: [u8; 32],
    /// Maximum requests per proposed batch.
    pub max_batch: usize,
    /// Checkpoint period in batches.
    pub checkpoint_period: u64,
    /// Progress timeout (milliseconds) before a leader change.
    pub progress_timeout_ms: u64,
    /// Reject unsigned client requests. Defaults to `true`: on an open TCP
    /// surface an unsigned request lets any network peer forge another
    /// client's `(client, seq)` and poison its duplicate filter.
    pub require_signed: bool,
    /// Client admission cap per replica: inbound connections beyond this
    /// (plus the reserved peer slots) are closed at accept.
    pub max_clients: usize,
}

impl ClusterConfig {
    /// A descriptor for `replicas` with the given secret. The batch,
    /// checkpoint and timeout defaults match `RuntimeConfig`'s;
    /// `require_signed` does not (`true` here, `false` there).
    pub fn new(replicas: Vec<String>, secret: [u8; 32]) -> ClusterConfig {
        ClusterConfig {
            replicas,
            secret,
            max_batch: 64,
            checkpoint_period: 128,
            progress_timeout_ms: 500,
            require_signed: true,
            max_clients: 1024,
        }
    }

    /// Parses the descriptor.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed input.
    pub fn parse(text: &str) -> Result<ClusterConfig, String> {
        let mut replicas: Option<Vec<String>> = None;
        let mut secret: Option<[u8; 32]> = None;
        let mut max_batch = 64usize;
        let mut checkpoint_period = 128u64;
        let mut progress_timeout_ms = 500u64;
        let mut require_signed = true;
        let mut max_clients = 1024usize;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", lineno + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "replicas" => replicas = Some(parse_string_array(value, lineno + 1)?),
                "secret" => {
                    let bytes = unhex(parse_string(value, lineno + 1)?.as_str())
                        .ok_or_else(|| format!("line {}: secret is not hex", lineno + 1))?;
                    let arr: [u8; 32] = bytes
                        .try_into()
                        .map_err(|_| format!("line {}: secret must be 32 bytes", lineno + 1))?;
                    secret = Some(arr);
                }
                "max_batch" => {
                    max_batch = value
                        .parse()
                        .map_err(|_| format!("line {}: bad max_batch", lineno + 1))?;
                }
                "checkpoint_period" => {
                    checkpoint_period = value
                        .parse()
                        .map_err(|_| format!("line {}: bad checkpoint_period", lineno + 1))?;
                }
                "progress_timeout_ms" => {
                    progress_timeout_ms = value
                        .parse()
                        .map_err(|_| format!("line {}: bad progress_timeout_ms", lineno + 1))?;
                }
                "require_signed" => {
                    require_signed = value
                        .parse()
                        .map_err(|_| format!("line {}: bad require_signed", lineno + 1))?;
                }
                "max_clients" => {
                    max_clients = value
                        .parse()
                        .map_err(|_| format!("line {}: bad max_clients", lineno + 1))?;
                }
                other => return Err(format!("line {}: unknown key `{other}`", lineno + 1)),
            }
        }
        let replicas = replicas.ok_or("missing `replicas`")?;
        if replicas.len() < 4 {
            return Err(format!(
                "need at least 4 replicas for f = 1 (got {})",
                replicas.len()
            ));
        }
        Ok(ClusterConfig {
            replicas,
            secret: secret.ok_or("missing `secret`")?,
            max_batch,
            checkpoint_period,
            progress_timeout_ms,
            require_signed,
            max_clients,
        })
    }

    /// Renders the descriptor back to `cluster.toml` form.
    pub fn to_toml(&self) -> String {
        let addrs: Vec<String> = self.replicas.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "# SmartChain multi-process cluster descriptor.\n\
             replicas = [{}]\n\
             secret = \"{}\"\n\
             max_batch = {}\n\
             checkpoint_period = {}\n\
             progress_timeout_ms = {}\n\
             require_signed = {}\n\
             max_clients = {}\n",
            addrs.join(", "),
            hex(&self.secret),
            self.max_batch,
            self.checkpoint_period,
            self.progress_timeout_ms,
            self.require_signed,
            self.max_clients,
        )
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Tolerated faults (`⌊(n−1)/3⌋`).
    pub fn f(&self) -> usize {
        (self.n() - 1) / 3
    }

    /// Replica `id`'s consensus key, derived deterministically from the
    /// cluster secret — every process (replica or client) computes the same
    /// view without any key exchange. Multi-process deployments must use
    /// [`Backend::Ed25519`]: the Sim backend's verification registry is
    /// process-local.
    pub fn replica_secret(&self, id: usize, backend: Backend) -> SecretKey {
        let seed = derive_key(&self.secret, b"sc-consensus", &(id as u64).to_le_bytes());
        SecretKey::from_seed(backend, &seed)
    }

    /// The genesis view over the derived consensus keys.
    pub fn view(&self, backend: Backend) -> smartchain_consensus::View {
        smartchain_consensus::View {
            id: 0,
            members: (0..self.n())
                .map(|i| self.replica_secret(i, backend).public_key())
                .collect(),
        }
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(format!("line {lineno}: expected a quoted string"))
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(format!("line {lineno}: expected a [..] array"));
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_toml() {
        let config = ClusterConfig::new(
            (0..4).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect(),
            [0x42; 32],
        );
        let text = config.to_toml();
        let back = ClusterConfig::parse(&text).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn parses_comments_and_spacing() {
        let text = r#"
            # a comment
            replicas = [ "a:1", "b:2", "c:3" , "d:4" ]  # trailing comment
            secret = "0000000000000000000000000000000000000000000000000000000000000000"
            max_batch = 7
        "#;
        let config = ClusterConfig::parse(text).unwrap();
        assert_eq!(config.replicas.len(), 4);
        assert_eq!(config.max_batch, 7);
        assert_eq!(config.checkpoint_period, 128, "default survives");
        assert_eq!(config.max_clients, 1024, "default survives");
    }

    #[test]
    fn max_clients_survives_the_toml_roundtrip() {
        let mut config = ClusterConfig::new(vec!["w:1".into(); 4], [9; 32]);
        config.max_clients = 3;
        let back = ClusterConfig::parse(&config.to_toml()).unwrap();
        assert_eq!(back.max_clients, 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(ClusterConfig::parse("replicas = [\"a\"]").is_err(), "n < 4");
        assert!(ClusterConfig::parse("secret = \"zz\"").is_err());
        assert!(ClusterConfig::parse("what = ever").is_err());
        assert!(ClusterConfig::parse("junk line").is_err());
    }

    #[test]
    fn derived_views_agree_across_instances() {
        let a = ClusterConfig::new(vec!["w".into(); 4], [9; 32]);
        let b = ClusterConfig::new(vec!["w".into(); 4], [9; 32]);
        assert_eq!(
            a.view(Backend::Ed25519).members,
            b.view(Backend::Ed25519).members,
            "two processes parsing the same descriptor derive the same view"
        );
        assert_ne!(
            a.replica_secret(0, Backend::Ed25519).public_key(),
            a.replica_secret(1, Backend::Ed25519).public_key()
        );
    }
}
