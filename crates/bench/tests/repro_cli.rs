//! The `repro` binary refuses an unknown experiment id before it runs or
//! writes anything — in particular, it must not replace the `section.repro`
//! slice of BENCH.json.

use std::process::Command;

#[test]
fn unknown_id_exits_2_without_writing_bench_json() {
    let dir = std::env::temp_dir().join(format!("perfpred-repro-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let bench_json = dir.join("BENCH.json");
    for args in [&["no-such-experiment"][..], &["table1", "--help"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("PERFPRED_BENCH_JSON", &bench_json)
            .env("PERFPRED_RESULTS_DIR", dir.join("results"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("try --list"), "{args:?}: {stderr}");
        assert!(
            !bench_json.exists(),
            "{args:?} wrote {}",
            bench_json.display()
        );
        assert!(!dir.join("results").exists(), "{args:?} wrote reports");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
