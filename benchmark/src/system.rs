//! Set-up: the table, the in-process `NetServer` over it, the caches and
//! the pre-warm. The time spent here is the `setup_s` metric.

use crate::client::{wire, Conn};
use crate::spec::{Workload, CLIENTS, WORKERS};
use crate::workload::{aliases, order, session_config, table, utterances, Utterance};
use muve::dbms::Table;
use muve::net::{NetConfig, NetServer};
use muve::pipeline::{SessionCaches, SessionConfig};
use muve::serve::ServerConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The load generator's own inputs. Building them is not part of set-up.
pub struct Inputs {
    /// The head of the workload's utterance stream (pool first).
    pub utterances: Vec<Utterance>,
    /// Wire bytes of each pool transcript.
    pub wires: Vec<Vec<u8>>,
    /// Pool indices no client sends (see `workload::aliases`); empty with
    /// caches off.
    pub skipped: Vec<u32>,
    /// Each client's request order.
    pub orders: Vec<Vec<u32>>,
}

impl Inputs {
    /// The wire bytes of every pool transcript the clients send.
    pub fn sent_wires(&self) -> impl Iterator<Item = &Vec<u8>> {
        let sent = |index: &usize| !self.skipped.contains(&(*index as u32));
        (0..self.wires.len()).filter(sent).map(|i| &self.wires[i])
    }
}

/// A workload, set up and serving.
pub struct System {
    pub table: Arc<Table>,
    pub config: SessionConfig,
    /// The cache bundle the HTTP server uses (`None` = caches off).
    pub caches: Option<Arc<SessionCaches>>,
    pub net: NetServer,
    pub inputs: Inputs,
    /// Table generation alone.
    pub generate: Duration,
    /// Table generation + server start + pre-warm.
    pub setup: Duration,
}

/// A fresh cache bundle for the workload, stamped with `table`.
pub fn caches(w: &Workload, table: &Table) -> Option<Arc<SessionCaches>> {
    (w.cache_bytes > 0).then(|| {
        let caches = Arc::new(SessionCaches::new(w.cache_bytes));
        caches.set_table(table);
        caches
    })
}

pub fn server_config(caches: Option<Arc<SessionCaches>>) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        caches,
        ..ServerConfig::default()
    }
}

/// Set the workload up. `inputs` from an earlier set-up of the same
/// `(workload, seed)` are reused; otherwise the first `n` utterances of the
/// stream are generated, outside the time counted as set-up.
pub fn setup(w: &Workload, seed: u64, n: usize, inputs: Option<Inputs>) -> System {
    let started = Instant::now();
    let table = Arc::new(table(w.data, w.rows, seed));
    let generate = started.elapsed();

    let uncounted = Instant::now();
    let inputs = inputs.unwrap_or_else(|| {
        let utterances = utterances(&table, n.max(w.pool), seed);
        let skipped = if w.cache_bytes > 0 {
            aliases(&table, &utterances[..w.pool])
        } else {
            Vec::new()
        };
        Inputs {
            wires: utterances[..w.pool]
                .iter()
                .map(|u| wire(&u.transcript))
                .collect(),
            orders: (0..CLIENTS).map(|c| order(w, seed, c, &skipped)).collect(),
            skipped,
            utterances,
        }
    });
    let uncounted = uncounted.elapsed();

    let config = session_config(w);
    let caches = caches(w, &table);
    let net = NetServer::start(
        Arc::clone(&table),
        server_config(caches.clone()),
        config.clone(),
        NetConfig::default(),
    )
    .expect("bind a loopback port");
    if w.prewarm {
        let mut conn = Conn::new(net.local_addr());
        for wire in inputs.sent_wires() {
            let (status, _) = conn.roundtrip(wire).expect("pre-warm request");
            assert_eq!(status, 200, "pre-warm request refused");
        }
    }
    System {
        table,
        config,
        caches,
        net,
        inputs,
        generate,
        setup: started.elapsed() - uncounted,
    }
}

impl System {
    /// Drain the server and drop everything set-up built, including the
    /// process-wide inverted indexes, so the next set-up starts cold.
    pub fn teardown(self) -> Inputs {
        self.net.shutdown();
        muve::dbms::index_registry().clear();
        self.inputs
    }
}
