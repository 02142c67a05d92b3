//! A blocking protocol client, used by the integration tests and the
//! benchmark's live probe.
//!
//! The server interleaves asynchronous per-batch `Converged` notices with
//! direct replies on the same stream; the client skips notices so
//! request/reply helpers always return the answer to *their* request
//! (DESIGN.md §15.1). A `Converged` with an empty token list is never a
//! notice — it is the acknowledgement of an explicit `Flush`.

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;

use jetstream_graph::EdgeUpdate;

use crate::framing::{read_frame_blocking, write_frame, Conn, FrameError};
use crate::protocol::{
    decode_response, encode_request, Request, Response, ServerStats, PROTOCOL_VERSION,
};
use crate::ServeError;

/// A synchronous connection to a `jetstream-serve` server.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_tcp(addr: &str) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let conn = Conn::Tcp(stream);
        conn.set_nodelay()?;
        Ok(Client { conn })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_unix(path: &Path) -> Result<Client, ServeError> {
        let stream = UnixStream::connect(path)?;
        Ok(Client { conn: Conn::Unix(stream) })
    }

    /// Sends `Hello` and waits for the acknowledgement. Returns the
    /// graph's vertex count and the algorithm name the server runs.
    ///
    /// # Errors
    ///
    /// Transport failures, a protocol version mismatch, or a server-side
    /// `Error` reply.
    pub fn hello(&mut self, client_name: &str) -> Result<(u64, String), ServeError> {
        self.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            client_name: client_name.to_string(),
        })?;
        match self.recv_reply()? {
            Response::HelloAck { version: PROTOCOL_VERSION, num_vertices, algorithm } => {
                Ok((num_vertices, algorithm))
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Sends one request frame.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        write_frame(&mut self.conn, &encode_request(request)).map_err(ServeError::Frame)
    }

    /// Receives the next response frame, converged notices included.
    ///
    /// # Errors
    ///
    /// Transport failures, undecodable frames, or the server closing the
    /// connection.
    pub fn recv(&mut self) -> Result<Response, ServeError> {
        match read_frame_blocking(&mut self.conn) {
            Ok(Some(payload)) => decode_response(&payload).map_err(ServeError::Protocol),
            Ok(None) => Err(ServeError::Frame(FrameError::Truncated)),
            Err(e) => Err(ServeError::Frame(e)),
        }
    }

    /// Receives the next *direct* reply, skipping any interleaved
    /// converged notices.
    ///
    /// # Errors
    ///
    /// Same contract as [`recv`](Client::recv).
    pub fn recv_reply(&mut self) -> Result<Response, ServeError> {
        loop {
            match self.recv()? {
                Response::Converged { tokens, .. } if !tokens.is_empty() => {}
                other => return Ok(other),
            }
        }
    }

    /// Sends an update message and returns its direct reply (`Admitted`,
    /// `Busy`, or `Rejected`).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn send_update(
        &mut self,
        token: u64,
        updates: &[EdgeUpdate],
    ) -> Result<Response, ServeError> {
        self.send(&Request::Update { token, updates: updates.to_vec() })?;
        match self.recv_reply()? {
            r @ (Response::Admitted { .. } | Response::Busy { .. } | Response::Rejected { .. }) => {
                Ok(r)
            }
            other => Err(unexpected(&other)),
        }
    }

    /// Forces the open batch to seal and waits until the server confirms
    /// everything sent so far has been applied. Returns the newest applied
    /// batch id.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn flush(&mut self) -> Result<u64, ServeError> {
        self.send(&Request::Flush)?;
        match self.recv_reply()? {
            Response::Converged { batch_id, .. } => Ok(batch_id),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads one vertex value from converged state.
    ///
    /// # Errors
    ///
    /// Transport failures, out-of-range vertices (server `Error`), or an
    /// unexpected reply kind.
    pub fn query_value(&mut self, vertex: u32) -> Result<f64, ServeError> {
        self.send(&Request::QueryValue { vertex })?;
        match self.recv_reply()? {
            Response::Value { value, .. } => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads the impacted set of the last applied batch (sorted).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn query_impacted(&mut self) -> Result<Vec<u32>, ServeError> {
        self.send(&Request::QueryImpacted)?;
        match self.recv_reply()? {
            Response::Impacted { vertices } => Ok(vertices),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads the dependence path from the root to `vertex` (empty when
    /// the vertex is unreached or the algorithm keeps no tree).
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn query_path(&mut self, vertex: u32) -> Result<Vec<u32>, ServeError> {
        self.send(&Request::QueryPath { vertex })?;
        match self.recv_reply()? {
            Response::Path { vertices } => Ok(vertices),
            other => Err(unexpected(&other)),
        }
    }

    /// Reads the server's lifetime counters.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.send(&Request::Stats)?;
        match self.recv_reply()? {
            Response::StatsReply(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Says goodbye and waits for the server's `Bye`.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply kind.
    pub fn goodbye(&mut self) -> Result<(), ServeError> {
        self.send(&Request::Goodbye)?;
        match self.recv_reply()? {
            Response::Bye => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> ServeError {
    match resp {
        Response::Error { message } => {
            ServeError::UnexpectedResponse { got: format!("server error: {message}") }
        }
        other => ServeError::UnexpectedResponse { got: format!("{other:?}") },
    }
}
