//! The origin Web server: serves the document corpus over the wire
//! protocol (`GET <url> ORIGIN/1.0`).
//!
//! A `GET` may carry an `If-Digest: <md5-hex>` header (the proxy's
//! disk-tier revalidation): when the named digest still matches the stored
//! body, the origin answers `304 Not Modified` with no body, so a stale
//! disk entry is refreshed for the cost of a header exchange instead of a
//! full document transfer.

use crate::fault::{FaultKind, FaultPlan};
use crate::protocol::{response, response_code, status, Message};
use crate::reactor::{Answer, EpollServer, DEFAULT_WORKERS};
use crate::store::DocumentStore;
use baps_obs::{EventKind, FlightRecorder, SpanId};
use parking_lot::RwLock;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A running origin server. Dropping it shuts it down.
pub struct OriginServer {
    server: EpollServer,
    state: Arc<OriginState>,
}

/// What the origin's serving workers share.
struct OriginState {
    store: RwLock<DocumentStore>,
    hits: AtomicU64,
    revalidations: AtomicU64,
    faults: Option<Arc<FaultPlan>>,
    recorder: Arc<FlightRecorder>,
}

impl OriginServer {
    /// Starts the server on an ephemeral loopback port with the default
    /// number of serving workers.
    pub fn start(store: DocumentStore) -> io::Result<OriginServer> {
        OriginServer::start_with_recorder(store, DEFAULT_WORKERS, None, None)
    }

    /// Starts the server with `workers` serving workers and an optional
    /// fault plan, recording `origin-serve` spans into `recorder` (the
    /// test bed passes the deployment-shared ring). With a plan, each
    /// served `GET` draws one origin-site fault decision (500s, mid-reply
    /// stalls, dropped connections), so a proxy's origin-retry path can be
    /// exercised deterministically.
    pub fn start_with_recorder(
        store: DocumentStore,
        workers: usize,
        faults: Option<Arc<FaultPlan>>,
        recorder: Option<Arc<FlightRecorder>>,
    ) -> io::Result<OriginServer> {
        let state = Arc::new(OriginState {
            store: RwLock::new(store),
            hits: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            faults,
            recorder: recorder.unwrap_or_else(|| Arc::new(FlightRecorder::default())),
        });
        let server = {
            let state = Arc::clone(&state);
            EpollServer::start(
                "baps-origin",
                TcpListener::bind("127.0.0.1:0")?,
                workers,
                Arc::default(),
                move |msg, _| serve(msg, &state),
            )?
        };
        Ok(OriginServer { server, state })
    }

    /// The address clients/proxies should dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Number of successful document fetches served (full bodies; `304
    /// Not Modified` answers are counted separately).
    pub fn hits(&self) -> u64 {
        self.state.hits.load(Ordering::Relaxed)
    }

    /// Number of conditional GETs answered `304 Not Modified` (the
    /// requester's `If-Digest` still matched, so no body was sent).
    pub fn revalidations(&self) -> u64 {
        self.state.revalidations.load(Ordering::Relaxed)
    }

    /// Mutates a stored document (models a changed Web page).
    pub fn mutate(&self, url: &str, body: Vec<u8>) -> bool {
        self.state.store.write().mutate(url, body)
    }

    /// Stops accepting, joins the serving workers and closes every open
    /// connection.
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

/// Answers one request frame. One fault decision per served GET; other
/// verbs stay honest so the draw sequence tracks document requests
/// exactly.
fn serve(msg: &Message, state: &OriginState) -> Answer {
    let faults = state.faults.as_deref();
    let fault = match (msg.tokens().first(), faults) {
        (Some(&"GET"), Some(plan)) => plan.origin_fault(),
        _ => None,
    };
    match fault {
        Some(FaultKind::OriginDrop) => return Answer::Close,
        // Pretend the backend failed; the document is NOT counted as
        // served.
        Some(FaultKind::OriginError) => {
            return Answer::Reply(response(status::SERVER_ERROR, "Internal Server Error"))
        }
        _ => {}
    }
    let t_serve = Instant::now();
    let reply = handle_request(msg, state);
    if let ["GET", url, "ORIGIN/1.0"] = msg.tokens().as_slice() {
        // On sampled traces the proxy forwards its origin-fetch span in
        // `Span-Id`; our serve span attaches under it.
        let (trace, parent) = msg.trace_context();
        let serve_span = if parent.is_none() {
            SpanId::NONE
        } else {
            SpanId::mint()
        };
        state.recorder.record_hop(
            trace,
            serve_span,
            parent,
            EventKind::OriginServe,
            t_serve.elapsed(),
            format!(
                "url={url} outcome={}",
                match response_code(&reply) {
                    Some(status::OK) => "ok",
                    Some(status::NOT_MODIFIED) => "not-modified",
                    _ => "miss",
                }
            ),
        );
    }
    Answer::with_fault(reply, fault, faults)
}

fn handle_request(msg: &Message, state: &OriginState) -> Message {
    let tokens = msg.tokens();
    match tokens.as_slice() {
        // `get_shared` hands out the stored allocation: serving a document
        // is a refcount bump under the read lock, not a copy.
        ["GET", url, "ORIGIN/1.0"] => match state.store.read().get_shared(url) {
            Some(body) => {
                // Conditional GET: the requester names the digest of its
                // stale copy; if unchanged, refresh it without the body.
                if let Some(expect) = msg.get("If-Digest") {
                    if baps_crypto::md5::md5(&body).to_hex() == expect {
                        state.revalidations.fetch_add(1, Ordering::Relaxed);
                        return response(status::NOT_MODIFIED, "Not Modified")
                            .header("X-Source", "origin");
                    }
                }
                state.hits.fetch_add(1, Ordering::Relaxed);
                response(status::OK, "OK")
                    .header("X-Source", "origin")
                    .with_body(body)
            }
            None => response(status::NOT_FOUND, "Not Found"),
        },
        _ => response(status::BAD_REQUEST, "Bad Request"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_message, write_message};
    use std::io::BufReader;
    use std::net::TcpStream;

    fn fetch(addr: SocketAddr, url: &str) -> Message {
        exchange(addr, Message::new(format!("GET {url} ORIGIN/1.0")))
    }

    fn exchange(addr: SocketAddr, msg: Message) -> Message {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &msg).unwrap();
        read_message(&mut reader).unwrap().unwrap()
    }

    #[test]
    fn serves_documents() {
        let store = DocumentStore::synthetic(3, 50, 100, 1);
        let expect = store.get("http://origin/doc/1").unwrap().to_vec();
        let server = OriginServer::start(store).unwrap();
        let reply = fetch(server.addr(), "http://origin/doc/1");
        assert_eq!(response_code(&reply), Some(200));
        assert_eq!(&reply.body[..], &expect[..]);
        assert_eq!(server.hits(), 1);
        server.shutdown();
    }

    #[test]
    fn unknown_document_404s() {
        let server = OriginServer::start(DocumentStore::synthetic(1, 10, 20, 2)).unwrap();
        let reply = fetch(server.addr(), "http://nowhere/x");
        assert_eq!(response_code(&reply), Some(404));
        assert_eq!(server.hits(), 0);
    }

    #[test]
    fn bad_request_400s() {
        let server = OriginServer::start(DocumentStore::new()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_message(&mut writer, &Message::new("FROB x ORIGIN/1.0")).unwrap();
        let reply = read_message(&mut reader).unwrap().unwrap();
        assert_eq!(response_code(&reply), Some(400));
    }

    #[test]
    fn conditional_get_revalidates_without_body() {
        let store = DocumentStore::synthetic(1, 50, 100, 9);
        let url = "http://origin/doc/0";
        let body = store.get(url).unwrap().to_vec();
        let digest = baps_crypto::md5::md5(&body).to_hex();
        let server = OriginServer::start(store).unwrap();
        // Matching digest: 304, empty body, not counted as a served hit.
        let reply = exchange(
            server.addr(),
            Message::new(format!("GET {url} ORIGIN/1.0")).header("If-Digest", digest),
        );
        assert_eq!(response_code(&reply), Some(status::NOT_MODIFIED));
        assert!(reply.body.is_empty());
        assert_eq!(server.hits(), 0);
        assert_eq!(server.revalidations(), 1);
        // Stale digest: a full 200 with the current body.
        let reply = exchange(
            server.addr(),
            Message::new(format!("GET {url} ORIGIN/1.0"))
                .header("If-Digest", baps_crypto::md5::md5(b"stale copy").to_hex()),
        );
        assert_eq!(response_code(&reply), Some(status::OK));
        assert_eq!(&reply.body[..], &body[..]);
        assert_eq!(server.hits(), 1);
        assert_eq!(server.revalidations(), 1);
    }

    #[test]
    fn mutate_changes_served_body() {
        let server = OriginServer::start(DocumentStore::synthetic(1, 10, 20, 3)).unwrap();
        assert!(server.mutate("http://origin/doc/0", b"new body".to_vec()));
        let reply = fetch(server.addr(), "http://origin/doc/0");
        assert_eq!(&reply.body[..], b"new body");
    }

    #[test]
    fn shutdown_is_clean_and_idempotent() {
        let server = OriginServer::start(DocumentStore::new()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // Connecting after shutdown either fails or is never served.
        match TcpStream::connect(addr) {
            Ok(_) | Err(_) => {}
        }
    }

    #[test]
    fn concurrent_fetches() {
        let store = DocumentStore::synthetic(8, 100, 200, 4);
        let server = OriginServer::start(store).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let reply = fetch(addr, &format!("http://origin/doc/{i}"));
                    assert_eq!(response_code(&reply), Some(200));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.hits(), 8);
    }
}
