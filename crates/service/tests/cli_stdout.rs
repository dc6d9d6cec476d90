//! The CLI when its reader goes away: a stdout closed before the CLI
//! writes (as by `| head -c 10`) ends the command quietly, with the exit
//! code its usage text documents, instead of a panic and exit code 101.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    // A 400-vertex cograph: 200 disjoint edges.
    let graph: String = (0..200)
        .map(|i| format!("{} {}\n", 2 * i, 2 * i + 1))
        .collect();
    let commands: [&[&str]; 2] = [&["solve", "-", "--json"], &["recognize", "-"]];
    for args in commands {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pathcover-cli"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the CLI");
        // The CLI reads all of stdin before it prints, so closing the read
        // end of its stdout first makes its first write hit a broken pipe.
        drop(child.stdout.take());
        let mut stdin = child.stdin.take().expect("stdin");
        stdin.write_all(graph.as_bytes()).expect("send the graph");
        drop(stdin);
        let output = child.wait_with_output().expect("wait for the CLI");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_ne!(output.status.code(), Some(101), "{args:?}: {stderr}");
        assert_eq!(output.status.code(), Some(141), "{args:?}: {stderr}");
    }
}
