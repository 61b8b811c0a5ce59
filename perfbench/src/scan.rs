//! The `modelcheck_pinned` workload: the analyzer binary scanning a
//! frozen copy of the workspace, so later edits to the workspace cannot
//! move the input.
//!
//! The copy is `pinned/tree.tar.gz` (the workspace at commit `8da53f6`,
//! without `vendor/`). An operation is one full scan of it.
//!
//! On a shared host one scan's time follows how much CPU the other
//! tenants leave: the same binary's median scan moved between 150 and
//! 220 ms from one 25 s run to the next. So every timed scan of the
//! analyzer under test is paired with a scan of the same tree by the
//! pinned analyzer (`modelcheck-pinned`, which `run.sh` builds from the
//! sources inside the pinned tree), the two back to back and in
//! alternating order. The host's speed cancels in the ratio of the
//! pair, and a time is reported as that ratio times the pinned
//! analyzer's own time on a quiet host ([`PINNED_SCAN_WALL_US`] and its
//! siblings): what the scan would take on that host. The raw times are
//! printed beside them.
//!
//! Set-up extracts the tree into a fresh directory and runs the first,
//! cold scan; it is repeated [`SETUPS`] times for each analyzer, in
//! pairs, and `setup_s` is the median pair ratio scaled the same way.
//! Warm pairs then run back to back for the measured seconds.
//!
//! Every scan's output must equal `pinned/expected.json`. The tree is
//! clean, so each warm scan of it is followed by an untimed scan of the
//! fixture workspace it carries, whose 24 pinned findings come from ten
//! rules (style, concurrency, dataflow and pragma); and the library's scan of the tree must report the pinned
//! file count and call-graph size. An analyzer that drops a pass or
//! skips files fails the run instead of reading as faster.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::daemons::Env;
use crate::report::{median, Metric, Outcome};
use crate::sys;

/// Set-up pairs per run; `setup_s` rests on their median ratio.
const SETUPS: usize = 7;
/// Fewest warm pairs a run makes, however short.
const MIN_SCANS: usize = 5;

/// The pinned analyzer's median warm scan of the pinned tree on a quiet
/// 2-CPU Xeon VM (rustc 1.95): wall time, µs.
const PINNED_SCAN_WALL_US: f64 = 150_000.0;
/// The same scan's CPU time (user+system), µs.
const PINNED_SCAN_CPU_US: f64 = 148_000.0;
/// The pinned analyzer's median set-up (extract plus cold scan) on the
/// same host, seconds.
const PINNED_SETUP_S: f64 = 0.21;

/// The frozen tree and the analyzer's output on it at the pinning commit.
pub fn pinned_archive(bench_dir: &Path) -> PathBuf {
    bench_dir.join("pinned").join("tree.tar.gz")
}

/// Extracts the pinned tree into a fresh `dir`.
pub fn extract(archive: &Path, dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let status = Command::new("tar")
        .arg("-xzf")
        .arg(archive)
        .arg("-C")
        .arg(dir)
        .status()
        .map_err(|e| format!("running tar: {e}"))?;
    if !status.success() {
        return Err(format!("tar failed to extract {}: {status}", archive.display()));
    }
    Ok(())
}

/// One scan: wall time, the child's own CPU and peak memory, and what
/// it printed.
pub struct Scan {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Child CPU, microseconds.
    pub cpu_us: u64,
    /// Child peak resident set, KiB.
    pub maxrss_kb: u64,
    /// Exit code (`None`: killed by a signal).
    pub code: Option<i32>,
    /// Standard output (the `--emit json` findings array).
    pub stdout: String,
}

/// Runs `modelcheck <tree> --emit json` once.
pub fn scan_once(bin: &Path, tree: &Path) -> Result<Scan, String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .arg(tree)
        .args(["--emit", "json"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("reading modelcheck output: {e}"))?;
    let usage = sys::wait_child(child.id()).map_err(|e| format!("waiting for modelcheck: {e}"))?;
    Ok(Scan {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_us: usage.cpu_us,
        maxrss_kb: usage.maxrss_kb,
        code: usage.code,
        stdout,
    })
}

/// What the analyzer must find on the pinned tree, read from
/// `pinned/expected.json` (its output at the pinning commit).
pub struct Expected {
    /// `--emit json` output on the pinned tree.
    tree: serde::Value,
    /// `(files, graph_nodes, graph_edges)` of the library scan of the tree.
    stats: [u64; 3],
    /// The fixture workspace inside the tree, relative to its root.
    fixture_dir: String,
    /// `--emit json` output on the fixture workspace.
    fixture: serde::Value,
}

impl Expected {
    /// Reads the pinned expectations from `bench_dir`.
    pub fn read(bench_dir: &Path) -> Result<Expected, String> {
        let path = bench_dir.join("pinned").join("expected.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let v: serde::Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| v.get(k).ok_or(format!("{} lacks `{k}`", path.display()));
        let stat = |k: &str| -> Result<u64, String> {
            match field("tree_stats")?.get(k) {
                Some(&serde::Value::Int(n)) if n >= 0 => Ok(n as u64),
                _ => Err(format!("{}: tree_stats.{k} is not a count", path.display())),
            }
        };
        let serde::Value::Str(fixture_dir) = field("fixture_dir")?.clone() else {
            return Err(format!("{}: fixture_dir is not a string", path.display()));
        };
        Ok(Expected {
            tree: field("tree_findings")?.clone(),
            stats: [stat("files")?, stat("graph_nodes")?, stat("graph_edges")?],
            fixture_dir,
            fixture: field("fixture_findings")?.clone(),
        })
    }
}

/// Why a scan's result is not acceptable, or `None`. A scan must exit
/// 0 (clean) or 1 (new findings), in agreement with what it found, and
/// print exactly the `expected` findings.
pub fn judge(scan: &Scan, expected: &serde::Value) -> Option<String> {
    if !matches!(scan.code, Some(0 | 1)) {
        return Some(format!("modelcheck exited with {:?}", scan.code));
    }
    let items = match serde_json::from_str::<serde::Value>(&scan.stdout) {
        Ok(serde::Value::Seq(items)) => items,
        Ok(_) => return Some("output is not a JSON array".to_string()),
        Err(e) => return Some(format!("output is not JSON: {e}")),
    };
    if (scan.code == Some(0))
        != items.iter().all(|f| f.get("baselined") == Some(&serde::Value::Bool(true)))
    {
        return Some(format!("exit code {:?} disagrees with the findings", scan.code));
    }
    let serde::Value::Seq(want) = expected else {
        return Some("the expected findings are not an array".to_string());
    };
    if items == *want {
        return None;
    }
    let differs =
        items.iter().zip(want).position(|(a, b)| a != b).unwrap_or(items.len().min(want.len()));
    Some(format!(
        "{} findings where {} are pinned; first difference at #{differs}",
        items.len(),
        want.len()
    ))
}

/// Why the library's scan of `tree` does not have the pinned size, or
/// `None`: a scan that skips files or calls prints the same clean
/// output, but a smaller call graph.
fn judge_stats(tree: &Path, expected: &Expected) -> Option<String> {
    let (_, s) = modelcheck::scan_workspace_with_stats(tree);
    let got = [s.files, s.graph_nodes, s.graph_edges].map(|n| n as u64);
    (got != expected.stats).then(|| {
        format!("files/graph_nodes/graph_edges {got:?} where {:?} are pinned", expected.stats)
    })
}

/// A timed scan of the analyzer under test and the pinned analyzer's
/// scan it is paired with.
struct Pair {
    current: Scan,
    pinned: Scan,
}

impl Pair {
    /// Runs `scan(bin)` for both analyzers, the pinned one first when
    /// `pinned_first`, so a host slowing down or speeding up through
    /// the run favours neither.
    fn run(
        bins: [&Path; 2],
        pinned_first: bool,
        mut scan: impl FnMut(&Path) -> Result<Scan, String>,
    ) -> Result<Pair, String> {
        let [current, pinned] = bins;
        Ok(if pinned_first {
            let pinned = scan(pinned)?;
            Pair { current: scan(current)?, pinned }
        } else {
            let current = scan(current)?;
            Pair { current, pinned: scan(pinned)? }
        })
    }

    fn wall_ratio(&self) -> f64 {
        self.current.wall_s / self.pinned.wall_s
    }

    fn cpu_ratio(&self) -> f64 {
        self.current.cpu_us as f64 / self.pinned.cpu_us.max(1) as f64
    }
}

/// Runs the workload for about `seconds` of back-to-back scan pairs.
pub fn run(seconds: f64, env: &Env, bench_dir: &Path) -> Result<Outcome, String> {
    let archive = pinned_archive(bench_dir);
    let expected = Expected::read(bench_dir)?;
    let (bin, pinned_bin) = (env.bin("modelcheck"), env.bin("modelcheck-pinned"));
    let bins = [bin.as_path(), pinned_bin.as_path()];
    let mut o = Outcome::default();
    let note = |o: &mut Outcome, what: &str, why: Option<String>| {
        o.attempted += 1;
        if let Some(why) = why {
            o.failed += 1;
            if o.failures.len() < 5 {
                o.failures.push(format!("{what}: {why}"));
            }
        }
    };
    // The reference must itself print the pinned output, or the ratios
    // compare against something else.
    let pinned_ok = |scan: &Scan, want: &serde::Value| match judge(scan, want) {
        None => Ok(()),
        Some(why) => Err(format!("the pinned analyzer {}: {why}", pinned_bin.display())),
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut tree = PathBuf::new();
    for k in 0..SETUPS {
        let dir = env.tmp.join(format!("pinned-{k}"));
        let pair = Pair::run(bins, k % 2 == 1, |b| {
            let t0 = Instant::now();
            extract(&archive, &dir)?;
            let mut scan = scan_once(b, &dir)?;
            // A set-up's time is the extraction and the cold scan.
            scan.wall_s = t0.elapsed().as_secs_f64();
            Ok(scan)
        })?;
        note(&mut o, "cold scan", judge(&pair.current, &expected.tree));
        pinned_ok(&pair.pinned, &expected.tree)?;
        setups.push(pair);
        if k + 1 < SETUPS {
            let _ = std::fs::remove_dir_all(&dir);
        }
        tree = dir;
    }
    note(&mut o, "library scan", judge_stats(&tree, &expected));
    let fixture = tree.join(&expected.fixture_dir);
    let mut pairs = Vec::new();
    let t0 = Instant::now();
    while pairs.len() < MIN_SCANS || t0.elapsed().as_secs_f64() < seconds {
        let pair = Pair::run(bins, pairs.len() % 2 == 1, |b| scan_once(b, &tree))?;
        note(&mut o, "tree scan", judge(&pair.current, &expected.tree));
        pinned_ok(&pair.pinned, &expected.tree)?;
        pairs.push(pair);
        let fx = scan_once(&bin, &fixture)?;
        note(&mut o, "fixture scan", judge(&fx, &expected.fixture));
    }
    let _ = std::fs::remove_dir_all(&tree);
    o.log.push(format!(
        "{} warm scans of the tree, each paired with one by modelcheck-pinned and followed by a scan of {}; every output compared with pinned/expected.json",
        pairs.len(),
        expected.fixture_dir
    ));
    let mut wall_ratio: Vec<f64> = pairs.iter().map(Pair::wall_ratio).collect();
    wall_ratio.sort_by(f64::total_cmp);
    let p90 = wall_ratio[(wall_ratio.len() - 1) * 9 / 10];
    let scan_us = PINNED_SCAN_WALL_US * median(wall_ratio);
    let raw = |f: fn(&Pair) -> &Scan| median(pairs.iter().map(|p| f(p).wall_s).collect());
    o.metrics = vec![
        Metric::new(
            "setup_s",
            PINNED_SETUP_S * median(setups.iter().map(Pair::wall_ratio).collect()),
            "s",
        ),
        Metric::new("latency_p50_us", scan_us, "us"),
        Metric::new(
            "cpu_us_per_op",
            PINNED_SCAN_CPU_US * median(pairs.iter().map(Pair::cpu_ratio).collect()),
            "us",
        ),
        Metric::new(
            "peak_rss_mb",
            pairs.iter().map(|p| p.current.maxrss_kb).max().unwrap_or(0) as f64 / 1024.0,
            "MiB",
        ),
    ];
    o.extra = vec![
        Metric::new("latency_p90_us", PINNED_SCAN_WALL_US * p90, "us"),
        Metric::new("scan_s", scan_us / 1e6, "s"),
        Metric::new("capacity_rps", 1e6 / scan_us, "1/s"),
        Metric::new("raw.scan_s", raw(|p| &p.current), "s"),
        Metric::new("raw.pinned_scan_s", raw(|p| &p.pinned), "s"),
        Metric::new("raw.setup_s", median(setups.iter().map(|p| p.current.wall_s).collect()), "s"),
        Metric::new("error_rate", o.failed as f64 / o.attempted.max(1) as f64, "fraction"),
    ];
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(code: i32, stdout: &str) -> Scan {
        Scan { wall_s: 0.1, cpu_us: 1, maxrss_kb: 1, code: Some(code), stdout: stdout.to_string() }
    }

    fn pinned() -> Expected {
        Expected::read(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("pinned expectations")
    }

    #[test]
    fn judge_accepts_clean_and_flags_broken_scans() {
        let clean = pinned().tree;
        assert_eq!(judge(&scan(0, "[]"), &clean), None);
        assert!(judge(&scan(2, "[]"), &clean).is_some(), "usage error");
        assert!(judge(&scan(0, "not json"), &clean).is_some());
        assert!(judge(&scan(1, "[]"), &clean).is_some(), "exit 1 with nothing new");
    }

    #[test]
    fn pairs_alternate_their_order_and_time_the_current_analyzer_against_the_pinned() {
        let (current, pinned) = (Path::new("current"), Path::new("pinned"));
        for pinned_first in [false, true] {
            let mut order = Vec::new();
            let pair = Pair::run([current, pinned], pinned_first, |b| {
                order.push(b.to_path_buf());
                let mut s = scan(0, "[]");
                s.wall_s = if b == current { 0.3 } else { 0.2 };
                s.cpu_us = if b == current { 300 } else { 200 };
                Ok(s)
            })
            .expect("both scans ran");
            let first = if pinned_first { pinned } else { current };
            assert_eq!(order[0], first);
            assert_eq!(order.len(), 2);
            assert!((pair.wall_ratio() - 1.5).abs() < 1e-12);
            assert!((pair.cpu_ratio() - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn judge_holds_the_fixture_scan_to_every_pinned_finding() {
        let want = pinned().fixture;
        let serde::Value::Seq(items) = &want else { panic!("fixture findings are an array") };
        assert!(items.len() > 10, "the fixture pins findings of many rules");
        let full = serde_json::to_string(&want).expect("serializes");
        assert_eq!(judge(&scan(1, &full), &want), None);
        let dropped = serde_json::to_string(&serde::Value::Seq(items[1..].to_vec())).expect("ok");
        assert!(judge(&scan(1, &dropped), &want).is_some(), "a lost finding");
        assert!(judge(&scan(0, "[]"), &want).is_some(), "a pass that finds nothing");
    }
}
