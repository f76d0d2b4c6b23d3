//! What a client thread keeps in memory while it generates load: one
//! sample per transaction and, while tracing, one span per statement.

use std::time::Instant;

/// One finished transaction. Times are microseconds since the run's
/// shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct TxnSample {
    /// Workload-defined transaction kind (TPC-C: index into the mix).
    pub kind: u8,
    /// When its first statement was sent.
    pub start_us: u64,
    /// When its commit was acknowledged, or it was given up.
    pub end_us: u64,
    /// Attempts beyond the first.
    pub retries: u8,
    /// Committed (or rolled back on purpose) within the retry budget.
    pub ok: bool,
    /// Statement spans were recorded for it.
    pub traced: bool,
}

/// One statement round trip inside a traced transaction.
#[derive(Debug, Clone, Copy)]
pub struct StmtSpan {
    /// Index of the parent [`TxnSample`] in the same client's log.
    pub txn: u32,
    /// Workload-defined statement kind.
    pub stmt: u8,
    pub start_us: u64,
    pub end_us: u64,
}

pub struct ClientLog {
    epoch: Instant,
    pub samples: Vec<TxnSample>,
    pub spans: Vec<StmtSpan>,
    /// Set per transaction by the loop; statements consult it.
    pub tracing: bool,
}

impl ClientLog {
    pub fn new(epoch: Instant) -> Self {
        ClientLog {
            epoch,
            samples: Vec::new(),
            spans: Vec::new(),
            tracing: false,
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Runs one statement round trip, recording a span when tracing.
    /// Untraced statements read no clock.
    pub fn stmt<T>(&mut self, stmt: u8, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        self.spans.push(StmtSpan {
            txn: self.samples.len() as u32,
            stmt,
            start_us,
            end_us,
        });
        out
    }
}
