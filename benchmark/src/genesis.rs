//! `GenesisCoinApp`: SMaRtCoin with a genesis UTXO set that survives
//! `reset()`.
//!
//! `DurableApp::open` calls `app.reset()` before recovery, and
//! `SmartCoinApp::reset` empties the coin table — so coins populated before
//! `TcpCluster::start` silently vanish. This newtype makes the genesis coins
//! part of what "reset" means, which is what the paper's Fig. 7 experiment
//! (a cluster booted with a large UTXO set) needs.

use smartchain_coin::SmartCoinApp;
use smartchain_crypto::keys::PublicKey;
use smartchain_smr::app::Application;
use smartchain_smr::exec::{ExecPool, LaneHint};
use smartchain_smr::types::Request;

/// `SmartCoinApp` whose initial state is `coins` synthetic coins owned by
/// `owner`.
///
/// The coins are materialised by [`Application::reset`], which every
/// `DurableApp::open*` calls first; [`GenesisCoinApp::new`] itself leaves the
/// table empty so a cluster boot populates each replica once, not twice.
#[derive(Debug, Clone)]
pub struct GenesisCoinApp {
    inner: SmartCoinApp,
    owner: PublicKey,
    coins: u64,
}

impl GenesisCoinApp {
    /// An app authorising `minters`, whose genesis state (after `reset`)
    /// holds `coins` coins owned by `owner`.
    pub fn new(minters: Vec<PublicKey>, owner: PublicKey, coins: u64) -> GenesisCoinApp {
        GenesisCoinApp {
            inner: SmartCoinApp::new(minters),
            owner,
            coins,
        }
    }

    /// Same, already reset to the genesis state (for use outside a
    /// `DurableApp`).
    pub fn populated(minters: Vec<PublicKey>, owner: PublicKey, coins: u64) -> GenesisCoinApp {
        let mut app = GenesisCoinApp::new(minters, owner, coins);
        app.reset();
        app
    }

    /// The wrapped coin service.
    pub fn coin(&self) -> &SmartCoinApp {
        &self.inner
    }
}

impl Application for GenesisCoinApp {
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
        self.inner.populate_synthetic(self.owner, self.coins);
    }

    fn lane_hint(&self, request: &Request, lanes: usize) -> LaneHint {
        self.inner.lane_hint(request, lanes)
    }

    fn configure_lanes(&mut self, lanes: usize) {
        self.inner.configure_lanes(lanes);
    }

    fn execute_group(
        &mut self,
        group: &[Vec<(usize, &Request)>],
        pool: Option<&ExecPool>,
    ) -> Vec<(usize, Vec<u8>)> {
        self.inner.execute_group(group, pool)
    }
}
