//! Golden-transcript test for `spllift-cli serve`: replays the
//! committed request file and diffs the responses byte-exactly against
//! the committed expected output, at several `--jobs` values — the
//! protocol promises responses independent of worker-pool size.

use std::io::Write;
use std::process::{Command, Stdio};

const REQUESTS: &str = "tests/serve/transcript.requests";
const EXPECTED: &str = "tests/serve/transcript.expected";

fn serve(jobs: &str, input: &str) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spllift-cli"))
        .args(["serve", "--jobs", jobs])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8(out.stdout).expect("utf-8 responses"),
        out.status.success(),
    )
}

#[test]
fn golden_transcript_replays_byte_exactly() {
    let requests = std::fs::read_to_string(REQUESTS).unwrap();
    let expected = std::fs::read_to_string(EXPECTED).unwrap();
    for jobs in ["1", "2", "4"] {
        let (stdout, ok) = serve(jobs, &requests);
        assert!(ok, "serve --jobs {jobs} failed");
        assert_eq!(
            stdout, expected,
            "serve --jobs {jobs} diverges from the committed transcript"
        );
    }
}

#[test]
fn malformed_requests_keep_the_server_serving() {
    // Truncated JSON, an unknown request type, and a query against a
    // session that was never loaded each yield a structured error; the
    // final valid request still succeeds.
    let input = concat!(
        "{\"type\":\"que\n",
        "{\"type\":\"warmup\"}\n",
        "{\"type\":\"query\",\"session\":\"ghost\",\"queries\":[]}\n",
        "{\"type\":\"load\",\"session\":\"s\",\"path\":\"tests/serve/subject.repro\"}\n",
        "{\"type\":\"shutdown\"}\n",
    );
    let (stdout, ok) = serve("2", input);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "{stdout}");
    assert!(lines[0].starts_with("{\"type\":\"error\""), "{}", lines[0]);
    assert!(lines[0].contains("json parse error"), "{}", lines[0]);
    assert!(lines[1].contains("unknown request type"), "{}", lines[1]);
    assert!(lines[2].contains("unknown session"), "{}", lines[2]);
    assert!(lines[3].starts_with("{\"type\":\"ok\""), "{}", lines[3]);
    assert!(lines[4].contains("shutdown"), "{}", lines[4]);
}

#[test]
fn eof_without_shutdown_exits_cleanly() {
    let (stdout, ok) = serve("1", "{\"type\":\"stats\"}\n");
    assert!(ok);
    assert!(stdout.starts_with("{\"type\":\"ok\""), "{stdout}");
}

#[test]
fn legacy_threads_field_is_accepted_and_ignored() {
    // The solver is sequential; `analyze` still accepts the `threads`
    // field (the protocol only changes additively) and answers with the
    // same bytes as without it. Each variant runs in a fresh server, so
    // both solves are cold.
    let script = |threads: &str| {
        format!(
            concat!(
                "{{\"type\":\"load\",\"session\":\"s\",\"path\":\"tests/serve/subject.repro\"}}\n",
                "{{\"type\":\"analyze\",\"session\":\"s\",\"analysis\":\"reaching-defs\"{}}}\n",
                "{{\"type\":\"shutdown\"}}\n",
            ),
            threads
        )
    };
    let (plain, ok) = serve("1", &script(""));
    assert!(ok);
    assert!(plain.contains("\"outcome\":\"complete\""), "{plain}");
    let (with_threads, ok) = serve("1", &script(",\"threads\":4"));
    assert!(ok);
    assert_eq!(with_threads, plain);
    // The field stays validated: zero is still a structured error.
    let (zero, ok) = serve("1", &script(",\"threads\":0"));
    assert!(ok);
    let lines: Vec<&str> = zero.lines().collect();
    assert_eq!(lines.len(), 3, "{zero}");
    assert!(lines[1].starts_with("{\"type\":\"error\""), "{}", lines[1]);
    assert!(lines[1].contains("`threads` must be >= 1"), "{}", lines[1]);
}
