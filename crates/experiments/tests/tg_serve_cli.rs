//! End-to-end tests of the `tg-serve` binary: batch mode answers a
//! request file deterministically cold versus warm (the warm pass from
//! cache alone), the stdin loop answers interactively, override keys
//! change the scenario hash, malformed requests are skipped loudly
//! with a non-zero exit, and usage errors (a missing batch file, a
//! malformed count flag, an unknown flag, an unreadable line) exit 2
//! instead of panicking. Two processes answering one batch over one
//! cache directory print the same answers and leave whole entries only.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tg-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    dir
}

fn tg_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tg-serve"))
        .args(args)
        .output()
        .expect("tg-serve runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn batch_mode_cold_then_warm_is_byte_identical() {
    let dir = temp_dir("batch");
    let cache = dir.join("cache");
    let batch = dir.join("requests.txt");
    std::fs::write(
        &batch,
        "# two cells, one duplicate, one seed override\n\
         fft allon\n\
         fft allon\n\
         fft oract\n\
         fft allon seed=7\n",
    )
    .unwrap();
    let cache_arg = format!("--cache={}", cache.display());
    let batch_arg = format!("--batch={}", batch.display());
    let args = [batch_arg.as_str(), cache_arg.as_str(), "--tiny", "--quiet"];

    let cold = tg_serve(&args);
    assert!(cold.status.success(), "stderr: {}", stderr(&cold));
    let cold_answers = stdout(&cold);
    let lines: Vec<&str> = cold_answers.lines().collect();
    assert_eq!(lines.len(), 4, "one answer line per request");
    // The duplicate shares its hash and bytes; the overridden seed and
    // the different policy do not.
    assert_eq!(lines[0], lines[1]);
    assert_ne!(lines[0], lines[2]);
    assert_ne!(lines[0], lines[3]);
    // Three distinct scenarios were simulated, one answer coalesced or
    // hit the fresh entry.
    let summary = stderr(&cold);
    assert!(summary.contains("misses=3"), "stderr: {summary}");
    assert!(summary.contains("scenarios=4"), "stderr: {summary}");

    // Warm: byte-identical stdout, zero engine runs.
    let warm = tg_serve(&args);
    assert!(warm.status.success(), "stderr: {}", stderr(&warm));
    assert_eq!(stdout(&warm), cold_answers);
    let summary = stderr(&warm);
    assert!(summary.contains("hits=4"), "stderr: {summary}");
    assert!(summary.contains("misses=0"), "stderr: {summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_processes_share_one_cache_directory() {
    use experiments::context::ExpOptions;
    use experiments::service::{CacheLookup, ScenarioCache, ScenarioSpec};
    use experiments::sweep::{benchmark_from_label, policy_from_tag};

    let dir = temp_dir("shared");
    let cache_dir = dir.join("cache");
    let batch = dir.join("requests.txt");
    let cells = [
        ("fft", "allon"),
        ("fft", "pract"),
        ("lu_ncb", "allon"),
        ("lu_ncb", "oract"),
    ];
    let requests: String = cells.iter().map(|(b, p)| format!("{b} {p}\n")).collect();
    std::fs::write(&batch, requests).unwrap();
    let batch_arg = format!("--batch={}", batch.display());
    let cache_arg = format!("--cache={}", cache_dir.display());
    let args = [
        batch_arg.as_str(),
        "--tiny",
        "--threads=1",
        cache_arg.as_str(),
        "--quiet",
    ];
    // Both start before either finishes, so they race on every entry.
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_tg-serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("tg-serve starts")
    };
    let (first, second) = (spawn(), spawn());
    let [first, second] = [first, second].map(|c| c.wait_with_output().expect("tg-serve ends"));
    for out in [&first, &second] {
        assert!(out.status.success(), "stderr: {}", stderr(out));
    }
    assert_eq!(stdout(&first), stdout(&second));
    assert_eq!(stdout(&first).lines().count(), cells.len());

    let cache = ScenarioCache::new(&cache_dir);
    let config = ExpOptions::tiny().engine_config();
    for (bench, policy) in cells {
        let spec = ScenarioSpec::new(
            benchmark_from_label(bench).unwrap(),
            policy_from_tag(policy).unwrap(),
            config.clone(),
        );
        let lookup = cache.load(&spec);
        assert!(
            matches!(lookup, CacheLookup::Hit(_)),
            "{bench} {policy}: {lookup:?}"
        );
    }
    let names: Vec<String> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), cells.len(), "entries: {names:?}");
    assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdin_loop_answers_and_reports_stats() {
    let dir = temp_dir("stdin");
    let cache = dir.join("cache");
    let cache_arg = format!("--cache={}", cache.display());
    let mut child = Command::new(env!("CARGO_BIN_EXE_tg-serve"))
        .args([cache_arg.as_str(), "--tiny", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tg-serve spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"fft allon\nstats\nquit\n")
        .unwrap();
    let out = child.wait_with_output().expect("tg-serve exits");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text.lines();
    let answer = lines.next().expect("one answer line");
    // `<hash:016x> <record-csv>` — the CSV starts with the cell label.
    assert!(answer.split_whitespace().next().unwrap().len() == 16);
    assert!(answer.contains("fft,allon"), "answer: {answer}");
    let stats = lines.next().expect("stats line");
    assert!(stats.starts_with("# scenarios=1"), "stats: {stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_are_skipped_loudly_with_exit_2() {
    let dir = temp_dir("malformed");
    let cache = dir.join("cache");
    let batch = dir.join("requests.txt");
    std::fs::write(&batch, "fft allon\nnot-a-benchmark allon\nfft allon\n").unwrap();
    let cache_arg = format!("--cache={}", cache.display());
    let batch_arg = format!("--batch={}", batch.display());
    let out = tg_serve(&[batch_arg.as_str(), cache_arg.as_str(), "--tiny", "--quiet"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    // The good requests were still answered.
    assert_eq!(stdout(&out).lines().count(), 2);
    let err = stderr(&out);
    assert!(err.contains("malformed"), "stderr: {err}");
    assert!(err.contains("not-a-benchmark"), "stderr: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_request_no_engine_can_run_is_malformed_not_a_crash() {
    let dir = temp_dir("invalid-config");
    let cache_arg = format!("--cache={}", dir.join("cache").display());
    let mut child = Command::new(env!("CARGO_BIN_EXE_tg-serve"))
        .args([cache_arg.as_str(), "--tiny", "--threads=1", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tg-serve spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"lu_ncb allon grid=0\nfft allon duration-ms=0.2\n\
              lu_ncb allon duration-ms=1e300\nlu_ncb allon grid=100000\n\
              lu_ncb allon duration-ms=1e12\nfft allon\n",
        )
        .unwrap();
    let out = child.wait_with_output().expect("tg-serve exits");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(
        err.contains("[serve] malformed request \"lu_ncb allon grid=0\""),
        "stderr: {err}"
    );
    assert!(
        err.contains("thermal grid must be non-empty"),
        "stderr: {err}"
    );
    assert!(err.contains("duration-ms=0.2"), "stderr: {err}");
    // Its thermal steps would overflow a usize: rejected, not run.
    assert!(
        err.contains("[serve] malformed request \"lu_ncb allon duration-ms=1e300\""),
        "stderr: {err}"
    );
    // A grid and a run no host could allocate: rejected, not run.
    for line in ["lu_ncb allon grid=100000", "lu_ncb allon duration-ms=1e12"] {
        assert!(
            err.contains(&format!("[serve] malformed request \"{line}\"")),
            "stderr: {err}"
        );
    }
    assert!(err.contains("at most 262144 cells"), "stderr: {err}");
    assert!(
        err.contains("at most 1000000 thermal steps"),
        "stderr: {err}"
    );
    // The good line after the bad ones is still answered.
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "stdout: {text}");
    assert!(text.contains("fft,allon"), "stdout: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_without_panicking() {
    let dir = temp_dir("usage");
    let cache_arg = format!("--cache={}", dir.join("cache").display());
    let missing = format!("--batch={}", dir.join("no-such-file.txt").display());
    for (flag, expect) in [
        (missing.as_str(), "cannot open batch file"),
        ("--threads=abc", "--threads=<n>"),
        ("--frames=25", "unknown argument `--frames=25`"),
        ("--queue=-1", "--queue=<n>"),
    ] {
        let out = tg_serve(&[flag, cache_arg.as_str(), "--tiny", "--quiet"]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {err}");
        assert!(
            err.contains("error:") && err.contains(expect),
            "{flag}: {err}"
        );
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unreadable_batch_line_stops_the_batch_with_exit_2() {
    let dir = temp_dir("unreadable");
    let cache = dir.join("cache");
    let batch = dir.join("requests.txt");
    // Line 2 is not UTF-8; line 3 is never read.
    std::fs::write(&batch, b"fft allon\nfft \xff\xfe allon\nfft oract\n").unwrap();
    let cache_arg = format!("--cache={}", cache.display());
    let batch_arg = format!("--batch={}", batch.display());
    let out = tg_serve(&[batch_arg.as_str(), cache_arg.as_str(), "--tiny", "--quiet"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(
        err.contains("error: cannot read") && err.contains("requests.txt line 2"),
        "stderr: {err}"
    );
    // The request accepted before the bad line is still answered.
    assert_eq!(stdout(&out).lines().count(), 1, "stdout: {}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unreadable_stdin_line_stops_the_loop_with_exit_2() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tg-serve"))
        .args(["--tiny", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tg-serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"stats\n\xff\nstats\n")
        .unwrap();
    let out = child.wait_with_output().expect("tg-serve exits");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(
        err.contains("error: cannot read stdin line 2"),
        "stderr: {err}"
    );
    assert_eq!(stdout(&out).lines().count(), 1, "stdout: {}", stdout(&out));
}
