//! EXPERIMENTS.md quotes numbers from `results/`: every number in a
//! "Measured here" cell must appear in that row's `results/<id>.txt`, so
//! regenerating `results/` cannot leave the table quoting stale figures.
//! A number matches when the file holds it as a whole token (not as the
//! middle of a longer number); a cell must quote its file's precision.

use std::path::Path;

/// Cells whose numbers are not read from the row's results file, each
/// with its reason. Empty: every cell quotes its file.
const EXEMPT: &[(&str, &str)] = &[];

/// The numbers in `text`: optional minus, digits, optional fraction and
/// exponent — the way `results/` prints them.
fn numbers(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'.'));
        if !starts {
            i += 1;
            continue;
        }
        let start = if i > 0 && bytes[i - 1] == b'-' {
            i - 1
        } else {
            i
        };
        let mut end = i;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end + 1 < bytes.len() && bytes[end] == b'.' && bytes[end + 1].is_ascii_digit() {
            end += 1;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
        }
        let exp = end + usize::from(bytes.get(end + 1) == Some(&b'-'));
        if bytes.get(end) == Some(&b'e') && bytes.get(exp + 1).is_some_and(u8::is_ascii_digit) {
            end = exp + 1;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
        }
        out.push(&text[start..end]);
        i = end;
    }
    out
}

/// True when `text` holds `number` not flanked by further digits.
fn quotes(text: &str, number: &str) -> bool {
    let digits = number.trim_start_matches('-');
    text.match_indices(digits).any(|(at, _)| {
        let before = text[..at].bytes().next_back();
        let after = text[at + digits.len()..].bytes().next();
        let joined = |b: Option<u8>| b.is_some_and(|b| b.is_ascii_digit() || b == b'.');
        let after_joined = after.is_some_and(|b| b.is_ascii_digit())
            || (after == Some(b'.')
                && text[at + digits.len() + 1..]
                    .bytes()
                    .next()
                    .is_some_and(|b| b.is_ascii_digit()));
        !joined(before) && !after_joined
    })
}

#[test]
fn every_measured_here_number_is_in_its_results_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut column = None;
    let mut checked = 0;
    let mut missing = Vec::new();
    for line in doc.lines() {
        if !line.starts_with('|') {
            column = None;
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if let Some(at) = cells.iter().position(|c| *c == "Measured here") {
            column = Some(at);
            continue;
        }
        let (Some(at), Some(id)) = (
            column,
            cells[0].strip_prefix('`').and_then(|c| c.strip_suffix('`')),
        ) else {
            continue;
        };
        if EXEMPT.iter().any(|(exempt, _)| *exempt == id) {
            continue;
        }
        let results = std::fs::read_to_string(root.join("results").join(format!("{id}.txt")))
            .unwrap_or_else(|e| panic!("results/{id}.txt for EXPERIMENTS.md row `{id}`: {e}"));
        for number in numbers(cells[at]) {
            checked += 1;
            if !quotes(&results, number) {
                missing.push(format!("`{id}` quotes {number}, not in results/{id}.txt"));
            }
        }
    }
    assert!(
        checked > 50,
        "found only {checked} quoted numbers: is the table still there?"
    );
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn the_number_scanner_reads_results_notation() {
    assert_eq!(
        numbers("cL = 23.9 / 18.7 ms; λL = 1.26e-3, x2 -7111 0 → 4.17 pp"),
        ["23.9", "18.7", "1.26e-3", "-7111", "0", "4.17"]
    );
    assert!(quotes("slack 1.050 and 0.84", "1.050"));
    assert!(!quotes("slack 1.050", "1.05"));
    assert!(!quotes("12.34", "2.3"));
}
