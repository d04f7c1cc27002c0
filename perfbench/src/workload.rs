//! The benchmark's workloads, the jobs they run, and the output checks.
//!
//! Each workload is a fixed list of jobs — one simulated machine running
//! one program — driven through the public system APIs (`*System::new`
//! then `run`). Why these three workloads is recorded in the README.

use crate::chase;
use ds_asm::Program;
use ds_core::{DsConfig, DsSystem, PerfectSystem, RunResult, TraditionalConfig, TraditionalSystem};
use ds_cpu::{ExecError, FuncCore};
use ds_mem::MemImage;
use ds_net::FabricKind;
use ds_workloads::Scale;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Instruction budget of `go-ds2` (the experiment harness's full budget).
pub const GO_BUDGET: u64 = 400_000;

/// The simulated machine of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// One core with a perfect data cache.
    Perfect,
    /// A DataScalar machine of `nodes` nodes on a bus or a ring.
    Ds { nodes: usize, ring: bool },
    /// The traditional system with `1/nodes` of memory on chip.
    Trad { nodes: usize },
}

impl Machine {
    /// Simulated cores (nodes that each commit the whole stream).
    pub fn cores(self) -> usize {
        match self {
            Machine::Ds { nodes, .. } => nodes,
            Machine::Perfect | Machine::Trad { .. } => 1,
        }
    }

    /// The configuration the job runs under.
    pub fn config(self, max_insts: Option<u64>) -> DsConfig {
        let nodes = match self {
            Machine::Perfect => 1,
            Machine::Ds { nodes, .. } | Machine::Trad { nodes } => nodes,
        };
        let mut c = DsConfig::with_nodes(nodes);
        c.max_insts = max_insts;
        if let Machine::Ds { ring: true, .. } = self {
            c.interconnect = FabricKind::Ring;
        }
        c
    }
}

/// One simulation job of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Short label, unique within the workload.
    pub label: &'static str,
    /// The machine it simulates.
    pub machine: Machine,
}

/// Where a workload's program comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// A registered kernel at `Scale::Small`.
    Kernel(&'static str),
    /// The seeded pointer chase.
    Chase,
}

/// A named benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    source: Source,
    /// Per-job instruction budget (`None` runs to halt).
    pub max_insts: Option<u64>,
    /// The jobs, run in this order.
    pub jobs: &'static [Job],
}

/// Every workload.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "go-ds2",
        source: Source::Kernel("go"),
        max_insts: Some(GO_BUDGET),
        jobs: &[Job {
            label: "ds2",
            machine: Machine::Ds {
                nodes: 2,
                ring: false,
            },
        }],
    },
    Workload {
        name: "chase-ds4-ring",
        source: Source::Chase,
        max_insts: None,
        jobs: &[Job {
            label: "ds4-ring",
            machine: Machine::Ds {
                nodes: 4,
                ring: true,
            },
        }],
    },
    Workload {
        name: "compress-fig7",
        source: Source::Kernel("compress"),
        max_insts: None,
        jobs: &[
            Job {
                label: "perfect",
                machine: Machine::Perfect,
            },
            Job {
                label: "ds2",
                machine: Machine::Ds {
                    nodes: 2,
                    ring: false,
                },
            },
            Job {
                label: "ds4",
                machine: Machine::Ds {
                    nodes: 4,
                    ring: false,
                },
            },
            Job {
                label: "trad2",
                machine: Machine::Trad { nodes: 2 },
            },
            Job {
                label: "trad4",
                machine: Machine::Trad { nodes: 4 },
            },
        ],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built program and the checksum its generator computed, if any.
pub struct Built {
    /// The program every job runs.
    pub program: Program,
    /// The generator's own checksum (the chase sums its cells).
    pub generated_sum: Option<u64>,
}

/// What every job of a workload must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Exact committed count for runs to halt; for budgeted runs, the
    /// budget, which a run must reach and may pass by at most one
    /// commit group.
    pub committed: u64,
    /// Whether `committed` is a budget rather than an exact count.
    pub budgeted: bool,
    /// The `result` checksum (runs to halt only).
    pub checksum: Option<u64>,
}

/// A functional reference run to halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The word the program stored at `result`.
    pub checksum: u64,
    /// Instructions executed, halt included.
    pub icount: u64,
}

/// Runs `program` on the functional core to halt.
///
/// # Panics
///
/// Panics if the program faults, does not halt within 50M instructions
/// or has no `result` symbol — all bugs in a workload definition.
pub fn reference_run(program: &Program) -> Reference {
    let mut mem = MemImage::new();
    program.load(&mut mem);
    let mut cpu = FuncCore::with_stack(program.entry, program.stack_top);
    cpu.run(&mut mem, 50_000_000)
        .expect("reference run executes");
    assert!(cpu.halted(), "reference run did not halt");
    let result = program
        .symbol("result")
        .expect("workload stores a `result`");
    Reference {
        checksum: mem.read_u64(result),
        icount: cpu.icount(),
    }
}

impl Workload {
    /// Builds the workload's program for `seed` (only the chase uses it).
    pub fn build(&self, seed: u64) -> Built {
        match self.source {
            Source::Kernel(name) => Built {
                program: (ds_workloads::by_name(name)
                    .expect("kernel registered")
                    .build)(Scale::Small),
                generated_sum: None,
            },
            Source::Chase => {
                let c = chase::generate(seed);
                Built {
                    program: c.program,
                    generated_sum: Some(c.expected_sum),
                }
            }
        }
    }

    /// The reference every job is checked against: the chase's own sum,
    /// or for a kernel run to halt a functional run's checksum.
    pub fn expected(&self, built: &Built) -> Expected {
        if let Some(budget) = self.max_insts {
            return Expected {
                committed: budget,
                budgeted: true,
                checksum: None,
            };
        }
        let r = reference_run(&built.program);
        Expected {
            committed: r.icount,
            budgeted: false,
            checksum: Some(built.generated_sum.unwrap_or(r.checksum)),
        }
    }
}

/// A built system of any of the three kinds.
pub enum System {
    /// A DataScalar machine.
    Ds(Box<DsSystem>),
    /// A traditional machine.
    Trad(Box<TraditionalSystem>),
    /// The perfect-cache machine.
    Perfect(Box<PerfectSystem>),
}

impl System {
    /// Builds the job's system for `program`.
    pub fn new(machine: Machine, max_insts: Option<u64>, program: &Program) -> System {
        let config = machine.config(max_insts);
        match machine {
            Machine::Ds { .. } => System::Ds(Box::new(DsSystem::new(config, program))),
            Machine::Trad { .. } => System::Trad(Box::new(TraditionalSystem::new(
                &TraditionalConfig { base: config },
                program,
            ))),
            Machine::Perfect => System::Perfect(Box::new(PerfectSystem::new(&config, program))),
        }
    }

    fn run(&mut self) -> Result<RunResult, ExecError> {
        match self {
            System::Ds(s) => s.run(),
            System::Trad(s) => s.run(),
            System::Perfect(s) => s.run(),
        }
    }

    /// Pages in the DataScalar page table (0 for the other systems).
    pub fn pages(&self) -> usize {
        match self {
            System::Ds(s) => s.page_table().declared_pages(),
            _ => 0,
        }
    }
}

/// What one job produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's statistics.
    pub result: RunResult,
    /// Cycles the DataScalar engine skipped (0 for the other systems).
    pub skipped: u64,
    /// Host seconds inside `run()`.
    pub run_s: f64,
    /// Whether the DataScalar caches still correspond after the run.
    pub correspondence: bool,
    /// The word at `result` in the final functional image (DataScalar
    /// only; the other systems do not expose their image).
    pub checksum: Option<u64>,
}

/// Runs a built system, timing `run()`. A panic, an execution error or a
/// watchdog trip is returned as an error.
pub fn run_job(mut sys: System, result_addr: Option<u64>) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let t0 = Instant::now();
        let result = sys.run();
        let run_s = t0.elapsed().as_secs_f64();
        let result = result.map_err(|e| format!("execution error: {e}"))?;
        if let Some(report) = &result.deadlock {
            return Err(format!("watchdog tripped:\n{report}"));
        }
        let (skipped, correspondence, checksum) = match &sys {
            System::Ds(s) => (
                s.cycles_skipped(),
                s.correspondence_holds(),
                result_addr.map(|a| s.mem().read_u64(a)),
            ),
            _ => (0, true, None),
        };
        Ok(Outcome {
            result,
            skipped,
            run_s,
            correspondence,
            checksum,
        })
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// Checks one job's output against the workload's reference.
pub fn check(o: &Outcome, expected: &Expected, commit_width: u64) -> Result<(), String> {
    let c = o.result.committed;
    let committed_ok = if expected.budgeted {
        c >= expected.committed && c <= expected.committed + commit_width
    } else {
        c == expected.committed
    };
    if !committed_ok {
        return Err(format!("committed {c}, expected {}", expected.committed));
    }
    if !o.correspondence {
        return Err("cache correspondence broken".into());
    }
    match (o.checksum, expected.checksum) {
        (Some(got), Some(want)) if got != want => {
            Err(format!("checksum {got:#x}, expected {want:#x}"))
        }
        _ => Ok(()),
    }
}

/// Every deterministic count of a job on one line, so two runs (or two
/// commits) can be compared for identical simulated statistics.
pub fn fingerprint(workload: &str, job: &str, o: &Outcome) -> String {
    let r = &o.result;
    let mut s = format!(
        "fingerprint {workload}/{job} cycles={} committed={} skipped={} window_high_water={} bus={:?}",
        r.cycles, r.committed, o.skipped, r.trace_window_high_water, r.bus
    );
    for (i, n) in r.nodes.iter().enumerate() {
        s.push_str(&format!(" n{i}={n:?}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(committed: u64, checksum: Option<u64>) -> Outcome {
        Outcome {
            result: RunResult {
                committed,
                ..Default::default()
            },
            skipped: 0,
            run_s: 1.0,
            correspondence: true,
            checksum,
        }
    }

    #[test]
    fn a_budgeted_run_must_reach_its_budget_within_one_commit_group() {
        let expected = Expected {
            committed: 100,
            budgeted: true,
            checksum: None,
        };
        assert!(check(&outcome(103, None), &expected, 8).is_ok());
        assert!(check(&outcome(99, None), &expected, 8).is_err());
        assert!(check(&outcome(109, None), &expected, 8).is_err());
    }

    #[test]
    fn broken_correspondence_is_a_failure() {
        let expected = Expected {
            committed: 10,
            budgeted: false,
            checksum: None,
        };
        let mut o = outcome(10, None);
        o.correspondence = false;
        assert!(check(&o, &expected, 8).is_err());
    }

    #[test]
    fn a_wrong_expected_checksum_fails_a_real_compress_job() {
        let w = by_name("compress-fig7").unwrap();
        let built = w.build(0);
        let mut expected = w.expected(&built);
        let addr = built.program.symbol("result");
        let o = run_job(System::new(w.jobs[1].machine, None, &built.program), addr).unwrap();
        assert!(check(&o, &expected, 8).is_ok(), "the true reference passes");
        expected.checksum = expected.checksum.map(|c| c ^ 1);
        assert!(
            check(&o, &expected, 8).is_err(),
            "a wrong reference must fail"
        );
    }
}
