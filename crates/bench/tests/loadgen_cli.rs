//! `loadgen` records into BENCH.json only when a run names its section
//! with `--bench-section`: an ad-hoc run must leave the file alone.

use perfpred_core::http::{parse_head, read_frame, HeadOutcome, Request, Response};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// A stub daemon answering every request with a 200 prediction over
/// keep-alive connections, one thread per connection.
struct Stub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl Stub {
    fn start() -> Stub {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        // The scope joins every connection thread; each ends when its
        // client hangs up.
        let acceptor = thread::spawn(move || {
            thread::scope(|s| {
                for stream in listener.incoming().flatten() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    s.spawn(move || answer(stream));
                }
            })
        });
        Stub {
            addr,
            stop,
            acceptor,
        }
    }

    /// Stops accepting (one connection wakes the blocked accept) and
    /// joins every thread.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        self.acceptor.join().unwrap();
    }
}

fn answer(mut stream: TcpStream) {
    let mut buf = Vec::new();
    let mut req = Request::default();
    let mut out = Vec::new();
    let reply = Response::text(
        200,
        r#"{"mode": "normal", "prediction": {"mrt_ms": 5.0, "throughput_rps": 10.0}}"#,
    );
    while let Ok(HeadOutcome::Complete(info)) =
        read_frame(&mut stream, &mut buf, |b| parse_head(b, &mut req))
    {
        info.take_body(&mut buf, &mut req.body);
        out.clear();
        reply.write_into(&mut out, true);
        if stream.write_all(&out).is_err() {
            return;
        }
    }
}

#[test]
fn bench_json_is_written_only_with_bench_section() {
    let dir = std::env::temp_dir().join(format!("perfpred-loadgen-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bench_json = dir.join("BENCH.json");
    let stub = Stub::start();
    let addr = stub.addr.to_string();
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(["--addr", &addr, "--clients", "1", "--duration-s", "0.2"])
            .args(["--think-ms", "0", "--key-space", "1"])
            .args(extra)
            .env("PERFPRED_BENCH_JSON", &bench_json)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{extra:?}: {stderr}");
    };

    run(&[]);
    assert!(
        !bench_json.exists(),
        "an ad-hoc run wrote {}",
        bench_json.display()
    );

    run(&["--bench-section", "loadgen.cli"]);
    let written = std::fs::read_to_string(&bench_json).unwrap();
    assert!(written.contains("section.loadgen.cli"), "{written}");
    stub.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
