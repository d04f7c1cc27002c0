//! DataScalar simulator benchmark: one simulation job at a time, in a
//! closed loop, through the public system APIs.
//!
//! ```text
//! ds-perfbench measure   --workload <name> --seed <n> --seconds <s>
//! ds-perfbench footprint --workload <name> --seed <n>
//! ds-perfbench trace     --workload <name> --seed <n>
//! ```
//!
//! `measure` repeats the workload's jobs until `--seconds` have passed and
//! prints one JSON line: each job's committed instructions, the host
//! seconds of every `run()` and of the reference kernel around it (see
//! `reference.rs`), set-up times, job accounting and
//! (in an `--features obs` build) the cycle-accounting and critical-path
//! shares. `footprint` runs every job once without the reference kernel
//! and prints the peak RSS. `trace` prints the per-layer metrics of the
//! traced run (see `layers.rs`). Both print one `fingerprint` line per
//! job with every deterministic counter. `run.py` drives both builds and
//! prints the benchmark's result; see README.md.

mod chase;
mod layers;
mod reference;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{check, fingerprint, run_job, Expected, Job, Outcome, System, Workload};

struct Args {
    mode: String,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
}

/// Set-ups timed at the start of each `measure` process (each well under
/// a millisecond), before the ones timed with every repetition.
const SETUP_REPS: usize = 30;
/// Runs of each job, and of each replay, in the traced run.
const TRACE_RUNS: usize = 3;

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it
        .next()
        .ok_or("missing mode (measure, footprint or trace)")?;
    if !["measure", "footprint", "trace"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?}"));
    }
    let (mut workload, mut seed, mut seconds) = (None, 0u64, 1.0f64);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        mode,
        workload,
        seed,
        seconds,
    })
}

/// Job accounting shared by both modes.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// First fingerprint seen per job.
    fingerprints: BTreeMap<String, String>,
}

impl Ledger {
    /// Checks one attempt; returns the outcome if it passed.
    fn judge(
        &mut self,
        w: &Workload,
        job: &Job,
        expected: &Expected,
        attempt: Result<Outcome, String>,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let verdict = attempt.and_then(|o| {
            check(
                &o,
                expected,
                job.machine.config(None).core.commit_width as u64,
            )?;
            let fp = fingerprint(w.name, job.label, &o);
            let first = self
                .fingerprints
                .entry(job.label.to_string())
                .or_insert(fp.clone());
            if *first != fp {
                return Err("counters differ between repetitions".into());
            }
            Ok(o)
        });
        match verdict {
            Ok(o) => Some(o),
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{}/{}: {e}", w.name, job.label));
                None
            }
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".into()
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
    format!("[{}]", items.join(","))
}

/// Closed loop: repeat every job until the time budget is spent.
fn measure(a: &Args) -> String {
    let w = a.workload;
    let built = w.build(a.seed);
    let expected = w.expected(&built);
    let result_addr = built.program.symbol("result");

    // One set-up: the program build plus every job's System::new.
    let set_up = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let b = w.build(a.seed);
        let systems: Vec<System> = w
            .jobs
            .iter()
            .map(|j| System::new(j.machine, w.max_insts, &b.program))
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        systems
    };
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        set_up(&mut setup);
    }

    let mut ledger = Ledger::default();
    // Per job: committed instructions, every run()'s host seconds, and
    // the mean of the reference kernel's times just before and after it.
    let mut times: Vec<(u64, Vec<f64>, Vec<f64>)> = vec![(0, Vec::new(), Vec::new()); w.jobs.len()];
    let mut kernel = vec![reference::bracket(0.0)];
    let mut last = Vec::new();
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    loop {
        last.clear();
        // Every repetition starts with a timed set-up, so set-ups sample
        // the whole run and not only its first milliseconds.
        let systems = set_up(&mut setup);
        for ((job, (committed, runs, refs)), sys) in w.jobs.iter().zip(&mut times).zip(systems) {
            let attempt = run_job(sys, result_addr);
            let before = kernel[kernel.len() - 1];
            let run_s = attempt.as_ref().map_or(0.0, |o| o.run_s);
            kernel.push(reference::bracket(run_s));
            if let Some(o) = ledger.judge(w, job, &expected, attempt) {
                *committed = o.result.committed;
                runs.push(o.run_s);
                refs.push((before + kernel[kernel.len() - 1]) / 2.0);
                last.push(o);
            }
        }
        if start.elapsed() >= budget || ledger.failed == ledger.attempted {
            break;
        }
    }
    let jobs: Vec<String> = w
        .jobs
        .iter()
        .zip(&times)
        .map(|(job, (committed, runs, refs))| {
            format!(
                "{{\"label\":{},\"committed\":{committed},\"run_s\":{},\"ref_s\":{}}}",
                json_str(job.label),
                json_list(runs),
                json_list(refs)
            )
        })
        .collect();
    format!(
        "{{\"mode\":\"measure\",\"jobs\":[{}],\"setup_s\":{},\"kernel_s\":{},{},\"obs\":{}}}",
        jobs.join(","),
        json_list(&setup),
        json_list(&kernel),
        ledger_json(&ledger),
        obs_json(&last)
    )
}

/// One set-up and one run of every job, without the reference kernel, so
/// that the peak resident set is the simulator's alone.
fn footprint(a: &Args) -> String {
    let w = a.workload;
    let built = w.build(a.seed);
    let expected = w.expected(&built);
    let result_addr = built.program.symbol("result");
    let systems: Vec<System> = w
        .jobs
        .iter()
        .map(|j| System::new(j.machine, w.max_insts, &built.program))
        .collect();
    let mut ledger = Ledger::default();
    for (job, sys) in w.jobs.iter().zip(systems) {
        ledger.judge(w, job, &expected, run_job(sys, result_addr));
    }
    format!(
        "{{\"mode\":\"footprint\",\"peak_rss_mib\":{},{}}}",
        json_num(peak_rss_mib()),
        ledger_json(&ledger)
    )
}

fn ledger_json(l: &Ledger) -> String {
    let errors: Vec<String> = l.errors.iter().map(|e| json_str(e)).collect();
    let fps: Vec<String> = l.fingerprints.values().map(|f| json_str(f)).collect();
    format!(
        "\"attempted\":{},\"failed\":{},\"errors\":[{}],\"fingerprints\":[{}]",
        l.attempted,
        l.failed,
        errors.join(","),
        fps.join(",")
    )
}

/// Cycle-accounting and critical-path shares over the jobs, machine
/// totals, plus the instrumentation's dropped-record counters.
#[cfg(feature = "obs")]
fn obs_json(outcomes: &[Outcome]) -> String {
    use ds_obs::{CycleAccount, EdgeClass, StallBucket};
    let mut account = CycleAccount::default();
    let mut class_cycles = [0.0f64; 4];
    let (mut attributed, mut crit_dropped, mut timeline_dropped) = (0.0, 0u64, 0u64);
    for o in outcomes {
        let Some(m) = o.result.metrics.as_ref() else {
            continue;
        };
        for a in &m.node_accounts {
            account.merge(a);
        }
        let total = m.critpath.attributed_total() as f64;
        attributed += total;
        for (i, c) in EdgeClass::ALL.iter().enumerate() {
            class_cycles[i] += m.critpath.class_share(*c) * total;
        }
        crit_dropped += m.critpath.dropped_total();
        timeline_dropped += m.timeline.nodes.iter().map(|n| n.dropped).sum::<u64>();
    }
    let mut fields = vec![
        format!("\"obs.critpath_dropped\":{crit_dropped}"),
        format!("\"obs.timeline_dropped\":{timeline_dropped}"),
    ];
    for b in StallBucket::ALL {
        fields.push(format!(
            "\"obs.stall.{}\":{}",
            b.label(),
            json_num(account.share(b))
        ));
    }
    for (i, c) in EdgeClass::ALL.iter().enumerate() {
        let share = if attributed > 0.0 {
            class_cycles[i] / attributed
        } else {
            0.0
        };
        fields.push(format!(
            "\"obs.critpath.{}\":{}",
            c.label(),
            json_num(share)
        ));
    }
    format!("{{{}}}", fields.join(","))
}

#[cfg(not(feature = "obs"))]
fn obs_json(_outcomes: &[Outcome]) -> String {
    "null".into()
}

fn trace(a: &Args) -> String {
    let w = a.workload;
    let expected = w.expected(&w.build(a.seed));
    let mut ledger = Ledger::default();
    let metrics = layers::trace(w, a.seed, TRACE_RUNS, &mut |job, attempt| {
        ledger.judge(w, job, &expected, attempt)
    });
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"mode\":\"trace\",\"metrics\":{{{}}},{}}}",
        fields.join(","),
        ledger_json(&ledger)
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ds-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Job panics are caught and counted; keep their messages on stderr
    // short.
    std::panic::set_hook(Box::new(|info| eprintln!("ds-perfbench: job {info}")));
    let line = match args.mode.as_str() {
        "measure" => measure(&args),
        "footprint" => footprint(&args),
        _ => trace(&args),
    };
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_core::RunResult;

    #[test]
    fn a_wrong_checksum_or_drifting_counters_count_as_failed_jobs() {
        let w = workload::by_name("compress-fig7").unwrap();
        let job = &w.jobs[1];
        let outcome = Outcome {
            result: RunResult {
                committed: 10,
                cycles: 40,
                ..Default::default()
            },
            skipped: 0,
            run_s: 1.0,
            correspondence: true,
            checksum: Some(41),
        };
        let wrong = Expected {
            committed: 10,
            budgeted: false,
            checksum: Some(42),
        };
        let right = Expected {
            checksum: Some(41),
            ..wrong
        };
        let mut ledger = Ledger::default();

        assert!(ledger.judge(w, job, &wrong, Ok(outcome.clone())).is_none());
        assert_eq!((ledger.attempted, ledger.failed), (1, 1));
        assert!(ledger.judge(w, job, &right, Ok(outcome.clone())).is_some());
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));

        let mut drifted = outcome;
        drifted.result.cycles += 1;
        assert!(ledger.judge(w, job, &right, Ok(drifted)).is_none());
        assert!(ledger
            .judge(w, job, &right, Err("panicked".into()))
            .is_none());
        assert_eq!((ledger.attempted, ledger.failed), (4, 3));
    }
}
