//! One raw BFNET1 connection for the load generator.
//!
//! `bullfrog_net::Client` can only pipeline a batch of one kind (all
//! `QUERY` or all `EXECUTE` of one statement). `transfer_durable` sends
//! `BEGIN / EXECUTE / EXECUTE / COMMIT` as one burst, so the generator
//! speaks the wire directly through the crate's public framing
//! functions; the reads and writes are the same ones `Client` issues.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use bullfrog_common::{Row, Value};
use bullfrog_net::wire::{self, Request, Response};

/// A statement's failure as the generator sees it.
#[derive(Debug)]
pub enum StmtError {
    /// The server answered `ERR`; the session aborted the open
    /// transaction and the connection is still usable.
    Server { retryable: bool, message: String },
    /// The transport or the framing broke; the run cannot continue.
    Dead(String),
}

impl std::fmt::Display for StmtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StmtError::Server { retryable, message } => {
                write!(f, "server: {message} (retryable: {retryable})")
            }
            StmtError::Dead(m) => write!(f, "connection dead: {m}"),
        }
    }
}

pub type StmtResult<T> = Result<T, StmtError>;

pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> StmtResult<Conn> {
        let mut stream = TcpStream::connect(addr).map_err(dead)?;
        stream.set_nodelay(true).map_err(dead)?;
        wire::write_preamble(&mut stream).map_err(dead)?;
        Ok(Conn { stream })
    }

    fn recv(&mut self) -> StmtResult<Response> {
        match wire::read_response(&mut self.stream) {
            Ok(Some(r)) => Ok(r),
            Ok(None) => Err(StmtError::Dead("server closed the connection".into())),
            Err(e) => Err(StmtError::Dead(e.to_string())),
        }
    }

    /// One request, one response.
    pub fn call(&mut self, request: &Request) -> StmtResult<Response> {
        wire::write_frame(&mut self.stream, &request.encode()).map_err(dead)?;
        match self.recv()? {
            Response::Err {
                retryable, message, ..
            } => Err(StmtError::Server { retryable, message }),
            other => Ok(other),
        }
    }

    /// Writes every request back to back, then reads the responses in
    /// order. The bursts sent here are four small frames, far below what
    /// the socket buffers hold, so writing first cannot deadlock.
    pub fn burst(&mut self, requests: &[Request]) -> StmtResult<Vec<Response>> {
        let mut frames = Vec::new();
        for r in requests {
            wire::write_frame(&mut frames, &r.encode()).map_err(dead)?;
        }
        self.stream.write_all(&frames).map_err(dead)?;
        requests.iter().map(|_| self.recv()).collect()
    }

    pub fn query(&mut self, sql: &str) -> StmtResult<Response> {
        self.call(&Request::Query(sql.to_string()))
    }

    pub fn prepare(&mut self, id: u64, sql: &str) -> StmtResult<()> {
        self.call(&Request::Prepare {
            id,
            sql: sql.to_string(),
        })
        .map(|_| ())
    }

    pub fn execute(&mut self, id: u64, params: Vec<Value>) -> StmtResult<Response> {
        self.call(&Request::Execute {
            id,
            params: Row(params),
        })
    }
}

fn dead(e: std::io::Error) -> StmtError {
    StmtError::Dead(e.to_string())
}

/// The rows of a `ROWS` response; anything else is a protocol error.
pub fn rows_of(r: Response) -> StmtResult<Vec<Row>> {
    match r {
        Response::Rows { rows, .. } => Ok(rows),
        other => Err(StmtError::Dead(format!("expected rows, got {other:?}"))),
    }
}

/// The affected-row count of an `OK` response.
pub fn affected_of(r: Response) -> StmtResult<u64> {
    match r {
        Response::Ok { affected } => Ok(affected),
        other => Err(StmtError::Dead(format!("expected OK, got {other:?}"))),
    }
}
