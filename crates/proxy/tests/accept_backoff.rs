//! The proxy's accept loop under fd exhaustion. This file is its own test
//! binary, so it runs in its own process: lowering `RLIMIT_NOFILE` here
//! cannot leak into any other test.

use baps_proxy::{
    open_files_limit, read_message, response_code, set_open_files_limit, write_message,
    DocumentStore, Message, TestBed, TestBedConfig, ACCEPT_BACKOFF,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Highest descriptor currently open in this process.
fn highest_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("list open fds")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .expect("at least one open fd")
}

/// Under `EMFILE` every `accept` fails at once while the connection stays
/// queued. The loop must count each failure and back off, not spin: over
/// a 500 ms window it may fail at most once per backoff interval.
#[test]
fn accept_errors_are_counted_and_backed_off() {
    const WINDOW: Duration = Duration::from_millis(500);
    let bed = TestBed::start(
        DocumentStore::synthetic(4, 100, 200, 1),
        TestBedConfig {
            n_clients: 0,
            ..TestBedConfig::default()
        },
    )
    .expect("test bed starts");
    let (soft, _) = open_files_limit().expect("read RLIMIT_NOFILE");
    let before = bed.proxy.stats().accept_errors;

    // Fill every descriptor slot below a lowered limit, then free exactly
    // one: the client socket takes it, and the proxy's accept of the
    // other end finds none.
    set_open_files_limit(highest_open_fd() + 2).expect("lower RLIMIT_NOFILE");
    let mut fillers = Vec::new();
    while let Ok(file) = std::fs::File::open("/dev/null") {
        fillers.push(file);
    }
    fillers.pop();
    let client = TcpStream::connect(bed.proxy.addr()).expect("client takes the freed slot");
    let started = Instant::now();
    std::thread::sleep(WINDOW);
    let errors = bed.proxy.stats().accept_errors - before;
    let elapsed = started.elapsed();
    set_open_files_limit(soft).expect("restore RLIMIT_NOFILE");
    drop(fillers);

    let ceiling = (elapsed.as_millis() / ACCEPT_BACKOFF.as_millis()) as u64 + 5;
    assert!(errors >= 1, "EMFILE was never observed");
    assert!(
        errors <= ceiling,
        "{errors} accept errors in {elapsed:?}: the loop spins instead of backing off \
         (ceiling {ceiling})"
    );

    // With descriptors back, the queued connection is accepted and served,
    // and STATS reports the errors.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_message(&mut &client, &Message::new("STATS BAPS/1.0")).unwrap();
    let stats = read_message(&mut BufReader::new(&client))
        .unwrap()
        .expect("STATS reply");
    assert_eq!(response_code(&stats), Some(200));
    let reported: u64 = stats.get("Accept-Errors").unwrap().parse().unwrap();
    assert!(reported >= errors);
    assert!(bed
        .proxy
        .metrics_text()
        .contains("baps_accept_errors_total"));
    drop(client);
    bed.shutdown();
}
